package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzRemoteWriteBody feeds arbitrary bytes through the remote-write
// body's two decoders as the endpoint does — snappyDecode, then
// decodeWriteRequest on what it produced — and the raw bytes straight
// to decodeWriteRequest too. Neither may panic, and each allocates at
// most a small multiple of its own input plus a constant: snappy's
// declared length is only a claim, and the decoded bytes a legitimate
// block produces are at most about 21 times its input (a 3-byte copy
// element yields 64 bytes).
func FuzzRemoteWriteBody(f *testing.F) {
	proto := encodeWriteRequest(sampleSeries())
	f.Add(snappyEncode(proto))
	f.Add(proto)
	for _, block := range snappyCopyBlocks {
		f.Add(block)
	}
	f.Add(hostileSnappyBody())
	f.Add([]byte{})
	// bounded reports whether decode allocated at most 256 bytes per
	// input byte plus 64 KiB.
	bounded := func(in []byte, decode func()) bool {
		before := totalAlloc()
		decode()
		return totalAlloc()-before <= uint64(256*len(in)+64<<10)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw []byte
		var err error
		if !bounded(data, func() { raw, err = snappyDecode(data) }) {
			t.Fatalf("snappyDecode of %d bytes allocated too much", len(data))
		}
		inputs := [][]byte{data}
		if err == nil {
			inputs = append(inputs, raw)
		}
		for _, in := range inputs {
			if !bounded(in, func() { decodeWriteRequest(in) }) {
				t.Fatalf("decodeWriteRequest of %d bytes allocated too much", len(in))
			}
		}
	})
}

// appendedCount matches the point count an append reply carries, in
// the success body or in a failure's message.
var appendedCount = regexp.MustCompile(`^\{"appended":(\d+),"flushed":(?:true|false)\}\n$|append failed after (\d+) points`)

// FuzzAppendBody posts arbitrary bodies to /api/v1/append on a fresh
// in-memory database. The handler must not panic, must answer 200 or
// 400, and the point count its reply states must equal the points the
// database gained: the whole body on 200, the points ingested before
// the failure on 400 (zero when the reply states no count).
func FuzzAppendBody(f *testing.F) {
	seeds := []string{
		// The documented shapes: an object with points and flush, and a
		// bare array addressing series by tid and by source.
		`{"points":[{"tid":1,"ts":0,"value":5.0},{"source":"s2","ts":0,"value":7.25}],"flush":true}`,
		`[{"tid":1,"ts":0,"value":2},{"tid":1,"ts":1000,"value":4}]`,
		// The benchmark's body shape: ticks of both series, shortest
		// float32 spellings.
		`{"points":[{"tid":1,"ts":0,"value":1.5},{"tid":2,"ts":0,"value":-0.25},{"tid":1,"ts":1000,"value":3.4028235e+38},{"tid":2,"ts":1000,"value":1e-45}]}`,
		// A point rejected part-way: out of order after an accepted one.
		`[{"tid":1,"ts":1000,"value":1},{"tid":2,"ts":0,"value":1},{"tid":1,"ts":0,"value":1}]`,
		`{"flush":"yes"}`,
		`[]`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{1, len(s) / 3, len(s) / 2, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		db := testDB(t)
		rec := httptest.NewRecorder()
		New(db, Options{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/api/v1/append", strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		reply := rec.Body.String()
		if rec.Code == http.StatusBadRequest {
			var e struct{ Error string }
			if err := json.Unmarshal([]byte(reply), &e); err != nil {
				t.Fatalf("400 reply %q is not a JSON error: %v", reply, err)
			}
			reply = e.Error
		}
		stated := int64(0)
		if m := appendedCount.FindStringSubmatch(reply); m != nil {
			stated, _ = strconv.ParseInt(m[1]+m[2], 10, 64)
		} else if rec.Code == http.StatusOK {
			t.Fatalf("200 reply %q states no count", reply)
		}
		if gained := int64(db.Snapshot()["modelardb_ingested_points_total"]); gained != stated {
			t.Fatalf("reply %q (HTTP %d) states %d points, the database gained %d", reply, rec.Code, stated, gained)
		}
	})
}
