package httpapi

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"modelardb"
)

// ackTicks is more than two LengthLimits (50) of one series, so a
// query before a flush sees the two emitted segments' 100 points.
const ackTicks = 120

// countTid returns COUNT(*) of the DataPoint view for one series.
func countTid(t *testing.T, db *modelardb.DB, tid int) string {
	t.Helper()
	res, err := db.Query(t.Context(), fmt.Sprintf("SELECT COUNT(*) FROM DataPoint WHERE Tid = %d", tid))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return "0"
	}
	return fmt.Sprint(res.Rows[0][0])
}

// TestAckHTTPAppend pins the HTTP append row of the acknowledgement
// table in docs/operations.md. The 200 comes once AppendBatch has
// returned, so the database holds every counted point, durable as its
// wal_fsync says. A query lags by up to LengthLimit ticks per group,
// unless the request asks for "flush": true.
func TestAckHTTPAppend(t *testing.T) {
	ts, db, _ := newTestServer(t, Options{})
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for tick := range ackTicks {
		if tick > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"tid":1,"ts":%d,"value":5}`, tick*1000)
	}
	b.WriteString(`]}`)
	resp, body := post(t, ts.URL+"/api/v1/append", "application/json", b.String(), nil)
	if resp.StatusCode != http.StatusOK || body != fmt.Sprintf("{\"appended\":%d,\"flushed\":false}\n", ackTicks) {
		t.Fatalf("append: %d %q", resp.StatusCode, body)
	}
	if got := countTid(t, db, 1); got != "100" {
		t.Fatalf("after a 200 without flush a query sees %s points, want the 100 in emitted segments", got)
	}
	resp, body = post(t, ts.URL+"/api/v1/append", "application/json", `{"points":[],"flush":true}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d %q", resp.StatusCode, body)
	}
	if got := countTid(t, db, 1); got != fmt.Sprint(ackTicks) {
		t.Fatalf("after \"flush\": true a query sees %s points, want %d", got, ackTicks)
	}
}

// TestAckRemoteWrite pins the remote-write row of the acknowledgement
// table. The 204 comes once AppendBatch has returned; the endpoint has
// no flush, so a query lags by up to LengthLimit ticks per group until
// an emit or any Flush.
func TestAckRemoteWrite(t *testing.T) {
	ts, db, _ := newTestServer(t, Options{})
	samples := make([]promSample, ackTicks)
	for tick := range samples {
		samples[tick] = promSample{Value: 5, Timestamp: int64(tick) * 1000}
	}
	resp, body := promWrite(t, ts.URL, []promSeries{{
		Labels:  []promLabel{{Name: "__name__", Value: "s1"}},
		Samples: samples,
	}})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("remote write: %d %q", resp.StatusCode, body)
	}
	if got := countTid(t, db, 1); got != "100" {
		t.Fatalf("after a 204 a query sees %s points, want the 100 in emitted segments", got)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := countTid(t, db, 1); got != fmt.Sprint(ackTicks) {
		t.Fatalf("after Flush a query sees %s points, want %d", got, ackTicks)
	}
}
