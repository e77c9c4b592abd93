package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modelardb/internal/core"
)

// promWrite posts an encoded, snappy-compressed WriteRequest.
func promWrite(t *testing.T, url string, series []promSeries) (*http.Response, string) {
	t.Helper()
	body := string(snappyEncode(encodeWriteRequest(series)))
	return post(t, url+"/api/v1/prom/write", "application/x-protobuf", body, nil)
}

func TestRemoteWrite(t *testing.T) {
	ts, db, reg := newTestServer(t, Options{})
	resp, body := promWrite(t, ts.URL, []promSeries{
		{
			// Samples deliberately out of order: the handler must sort
			// them per series before appending.
			Labels:  []promLabel{{Name: "__name__", Value: "s1"}, {Name: "job", Value: "ignored"}},
			Samples: []promSample{{Value: 4, Timestamp: 1000}, {Value: 2, Timestamp: 0}},
		},
		{
			Labels:  []promLabel{{Name: "modelardb_tid", Value: "2"}},
			Samples: []promSample{{Value: 9, Timestamp: 0}},
		},
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d body %q, want 204", resp.StatusCode, body)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryRows(t.Context(), "SELECT Tid, TS, Value FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][3]float64
	for rows.Next() {
		var tid, timestamp int64
		var value float64
		if err := rows.Scan(&tid, &timestamp, &value); err != nil {
			t.Fatal(err)
		}
		got = append(got, [3]float64{float64(tid), float64(timestamp), value})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	want := [][3]float64{{1, 0, 2}, {1, 1000, 4}, {2, 0, 9}}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := reg.Snapshot()[`modelardb_http_requests_total{endpoint="prom_write"}`]; n != 1 {
		t.Fatalf("prom_write requests = %g, want 1", n)
	}
}

func TestRemoteWriteUnknownSeries(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	cases := []struct {
		name   string
		series []promSeries
	}{
		{"unknown metric name", []promSeries{{
			Labels:  []promLabel{{Name: "__name__", Value: "nope"}},
			Samples: []promSample{{Value: 1, Timestamp: 0}},
		}}},
		{"no identifying label", []promSeries{{
			Labels:  []promLabel{{Name: "job", Value: "x"}},
			Samples: []promSample{{Value: 1, Timestamp: 0}},
		}}},
		{"bad tid", []promSeries{{
			Labels:  []promLabel{{Name: "modelardb_tid", Value: "zero"}},
			Samples: []promSample{{Value: 1, Timestamp: 0}},
		}}},
		{"out-of-range tid", []promSeries{{
			Labels:  []promLabel{{Name: "modelardb_tid", Value: "99"}},
			Samples: []promSample{{Value: 1, Timestamp: 0}},
		}}},
	}
	for _, c := range cases {
		resp, body := promWrite(t, ts.URL, c.series)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %q, want 400", c.name, resp.StatusCode, body)
		}
		if !strings.Contains(body, "error") {
			t.Errorf("%s: body %q has no error", c.name, body)
		}
	}
}

// TestRemoteWriteAtomicResolution: if any series fails to resolve, no
// points from the request are ingested.
func TestRemoteWriteAtomicResolution(t *testing.T) {
	ts, db, _ := newTestServer(t, Options{})
	resp, _ := promWrite(t, ts.URL, []promSeries{
		{Labels: []promLabel{{Name: "__name__", Value: "s1"}}, Samples: []promSample{{Value: 1, Timestamp: 0}}},
		{Labels: []promLabel{{Name: "__name__", Value: "nope"}}, Samples: []promSample{{Value: 2, Timestamp: 0}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(t.Context(), "SELECT Tid, TS, Value FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatalf("data point %v ingested by a rejected write", rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWriteStatesCount: a request whose batch is rejected
// part-way answers 400 stating how many of its points the database
// kept, and that count is what the database gained.
func TestRemoteWriteStatesCount(t *testing.T) {
	ts, db, _ := newTestServer(t, Options{})
	// Series 1 arrives as two TimeSeries: the second one's sample is
	// older than the first's, so series 1 keeps two of its three points;
	// series 2 keeps its one.
	resp, body := promWrite(t, ts.URL, []promSeries{
		{Labels: []promLabel{{Name: "__name__", Value: "s2"}}, Samples: []promSample{{Value: 1, Timestamp: 0}}},
		{Labels: []promLabel{{Name: "__name__", Value: "s1"}}, Samples: []promSample{{Value: 1, Timestamp: 0}, {Value: 2, Timestamp: 2000}}},
		{Labels: []promLabel{{Name: "modelardb_tid", Value: "1"}}, Samples: []promSample{{Value: 3, Timestamp: 1000}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d body %q, want 400", resp.StatusCode, body)
	}
	m := appendedCount.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("400 body %q states no count", body)
	}
	gained := db.Snapshot()["modelardb_ingested_points_total"]
	if m[2] != "3" || gained != 3 {
		t.Fatalf("body %q states %s points, the database gained %g; want 3 and 3", body, m[2], gained)
	}
}

// TestRemoteWriteShipsInSlices: a request of 2×core.ShipSize+1 samples
// reaches the backend in slices of at most core.ShipSize, and a sample
// rejected in the last slice answers 400 stating the points of the
// earlier slices, which is what the database gained.
func TestRemoteWriteShipsInSlices(t *testing.T) {
	samples := make([]promSample, 2*core.ShipSize)
	for i := range samples {
		samples[i] = promSample{Value: float64(i % 10), Timestamp: int64(i) * 1000}
	}
	tid1 := []promLabel{{Name: "modelardb_tid", Value: "1"}}
	write := func(b Backend, series []promSeries) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		New(b, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/prom/write",
			bytes.NewReader(snappyEncode(encodeWriteRequest(series)))))
		return rec
	}

	b := &countingBackend{}
	rec := write(b, []promSeries{{Labels: tid1, Samples: append(samples, promSample{Timestamp: int64(len(samples)) * 1000})}})
	if rec.Code != http.StatusNoContent {
		t.Fatalf("HTTP %d %q, want 204", rec.Code, rec.Body)
	}
	if want := fmt.Sprint([]int{core.ShipSize, core.ShipSize, 1}); fmt.Sprint(b.batches) != want {
		t.Fatalf("AppendBatch calls of %v points, want %s", b.batches, want)
	}

	// The last slice holds one sample of series 1 that is older than the
	// series' first two slices.
	db := testDB(t)
	rec = write(db, []promSeries{{Labels: tid1, Samples: samples}, {Labels: tid1, Samples: []promSample{{Value: 1, Timestamp: 0}}}})
	want := fmt.Sprintf("append failed after %d points", 2*core.ShipSize)
	gained := int(db.Snapshot()["modelardb_ingested_points_total"])
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) || gained != 2*core.ShipSize {
		t.Fatalf("HTTP %d %q, %d points ingested; want 400 stating %q", rec.Code, rec.Body, gained, want)
	}
}
