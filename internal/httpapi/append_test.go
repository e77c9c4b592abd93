package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"modelardb"
	"modelardb/internal/core"
)

// pointsBody renders n points of series 1, one per tick, as a bare
// array, without its closing bracket.
func pointsBody(n int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"tid":1,"ts":%d,"value":%d}`, i*1000, i%10)
	}
	return b.String()
}

// TestAppendRefusesTruncatedAndTrailing: a body cut short or followed
// by more than white space is refused with a 400 that states the points
// kept — none, unless a full batch was shipped before the fault showed.
func TestAppendRefusesTruncatedAndTrailing(t *testing.T) {
	for _, c := range []struct {
		body string
		kept int
	}{
		{`[{"tid":1,"ts":0,"value":1}`, 0},
		{`{"points":[{"tid":1,"ts":0,"value":1}]`, 0},
		{`[{"tid":1,"ts":0,"value":1}] garbage`, 0},
		{`{"points":[{"tid":1,"ts":0,"value":1}]} trailing`, 0},
		{`[{"tid":1,"ts":0,"value":1}][]`, 0},
		{`[{"tid":1,"ts":0,"value":1},`, 0},
		{`[{"tid":1,"ts":0,"value":1}] ` + "\n", -1}, // white space is not trailing data
		{pointsBody(core.ShipSize + 1), core.ShipSize},
		{pointsBody(core.ShipSize+1) + "] x", core.ShipSize},
	} {
		db := testDB(t)
		rec := httptest.NewRecorder()
		New(db, Options{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/api/v1/append", strings.NewReader(c.body)))
		code, reply := rec.Code, rec.Body.String()
		gained := int(db.Snapshot()["modelardb_ingested_points_total"])
		name := c.body[:min(len(c.body), 60)]
		if c.kept < 0 {
			if code != http.StatusOK || gained != 1 {
				t.Errorf("%q: HTTP %d %q, %d points ingested; want 200 and 1", name, code, reply, gained)
			}
			continue
		}
		want := fmt.Sprintf("append failed after %d points", c.kept)
		if code != http.StatusBadRequest || !strings.Contains(reply, want) || gained != c.kept {
			t.Errorf("%q: HTTP %d %q, %d points ingested; want 400 stating %q", name, code, reply, gained, want)
		}
	}
}

// TestAppendCorners pins how the append body's corners decode, each as
// docs/http-api.md lists it, and checks each against the encoding/json
// reference too.
func TestAppendCorners(t *testing.T) {
	inf := float32(math.Inf(1))
	pt := func(tid modelardb.Tid, ts int64, v float32) modelardb.DataPoint {
		return modelardb.DataPoint{Tid: tid, TS: ts, Value: v}
	}
	for _, c := range []struct {
		name, body string
		want       []modelardb.DataPoint // nil: refused
		flush      bool
	}{
		{"point keys fold case", `[{"TID":1,"Ts":5,"VaLuE":2}]`, []modelardb.DataPoint{pt(1, 5, 2)}, false},
		{"last repeated key wins", `[{"tid":2,"tid":1,"ts":5,"TS":6,"value":1}]`, []modelardb.DataPoint{pt(1, 6, 1)}, false},
		{"unknown members skipped", `[{"tid":1,"x":{"y":[1,"a",null,true]},"ts":0,"value":1}]`, []modelardb.DataPoint{pt(1, 0, 1)}, false},
		{"null leaves a field as it was", `[{"tid":1,"ts":5,"ts":null,"value":null}]`, []modelardb.DataPoint{pt(1, 5, 0)}, false},
		{"escaped keys unquote", `[{"\u0074id":1,"ts":1,"value":1}]`, []modelardb.DataPoint{pt(1, 1, 1)}, false},
		{"source resolves", `[{"Source":"s2","ts":0,"value":1}]`, []modelardb.DataPoint{pt(2, 0, 1)}, false},
		{"tid wins over source", `[{"tid":1,"source":"nope","ts":0,"value":1}]`, []modelardb.DataPoint{pt(1, 0, 1)}, false},
		{"fractional tid refused", `[{"tid":1.0,"ts":0,"value":1}]`, nil, false},
		{"tid beyond int32 refused", `[{"tid":4294967297,"ts":0,"value":1}]`, nil, false},
		{"out-of-range ts refused", `[{"tid":1,"ts":9223372036854775808,"value":1}]`, nil, false},
		{"string value refused", `[{"tid":1,"ts":0,"value":"1"}]`, nil, false},
		{"value over float64 refused", `[{"tid":1,"ts":0,"value":1e309}]`, nil, false},
		{"value over float32 is +Inf", `[{"tid":1,"ts":0,"value":1e39}]`, []modelardb.DataPoint{pt(1, 0, inf)}, false},
		{"null point refused", `[null]`, nil, false},
		{"Points is not points", `{"Points":[{"tid":1,"ts":0,"value":1}]}`, []modelardb.DataPoint{}, false},
		{"every points array ingests", `{"points":[{"tid":1,"ts":0,"value":1}],"points":[{"tid":2,"ts":0,"value":2}]}`,
			[]modelardb.DataPoint{pt(1, 0, 1), pt(2, 0, 2)}, false},
		{"null points refused", `{"points":null}`, nil, false},
		{"flush is the OR of its members", `{"flush":true,"flush":false,"flush":null,"points":[]}`, []modelardb.DataPoint{}, true},
		{"Flush is not flush", `{"Flush":true,"points":[]}`, []modelardb.DataPoint{}, false},
		{"string flush refused", `{"flush":"yes"}`, nil, false},
		{"10 000 nested containers", `[{"tid":1,"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]`,
			[]modelardb.DataPoint{pt(1, 0, 0)}, false},
		{"10 001 nested containers refused", `[{"tid":1,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}]`, nil, false},
		{"escaped source", `[{"source":"\u0073\u0032"}]`, []modelardb.DataPoint{pt(2, 0, 0)}, false},
		{"escaped folding key", `[{"\u017fource":"s2","T\u0131d":1}]`, []modelardb.DataPoint{pt(2, 0, 0)}, false},
		{"trailing comma refused", `[{"tid":1},]`, nil, false},
	} {
		got, flush, err := scanAppend(nil, strings.NewReader(c.body), testSources)
		refGot, refFlush, refErr := referenceAppend([]byte(c.body), testSources)
		if !sameAppend(got, flush, err, refGot, refFlush, refErr) {
			t.Errorf("%s: scanner %v %v %v, reference %v %v %v", c.name, got, flush, err, refGot, refFlush, refErr)
		}
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: decoded %v, want an error", c.name, got)
			}
			continue
		}
		if !sameAppend(got, flush, err, c.want, c.flush, nil) {
			t.Errorf("%s: got %v flush %v err %v, want %v flush %v", c.name, got, flush, err, c.want, c.flush)
		}
	}
}

// TestAppendConcurrent: concurrent requests, each series addressed by
// source from its own goroutine, share the pooled decoders and batches
// without mixing their points.
func TestAppendConcurrent(t *testing.T) {
	const bodies, ticks = 20, 100
	db := testDB(t)
	h := New(db, Options{}).Handler()
	var wg sync.WaitGroup
	for _, source := range []string{"s1", "s2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range bodies {
				var b strings.Builder
				b.WriteByte('[')
				for tick := i * ticks; tick < (i+1)*ticks; tick++ {
					if tick > i*ticks {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `{"source":%q,"ts":%d,"value":%d}`, source, tick*1000, tick)
				}
				b.WriteByte(']')
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/append", strings.NewReader(b.String())))
				if rec.Code != http.StatusOK {
					t.Errorf("%s body %d: HTTP %d %s", source, i, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(t.Context(), "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	const n = bodies * ticks
	want := fmt.Sprint([][]any{{int64(1), int64(n), float64(n * (n - 1) / 2)}, {int64(2), int64(n), float64(n * (n - 1) / 2)}})
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("per series count and sum %s, want %s", got, want)
	}
}

// countingBackend records the size of every AppendBatch call.
type countingBackend struct {
	Backend
	batches []int
}

func (b *countingBackend) AppendBatch(_ context.Context, points []modelardb.DataPoint) error {
	b.batches = append(b.batches, len(points))
	return nil
}

// TestAppendShipsBoundedSlices: a body of three batches' worth of
// points reaches the backend as three AppendBatch calls of
// core.ShipSize points each.
func TestAppendShipsBoundedSlices(t *testing.T) {
	b := &countingBackend{}
	rec := httptest.NewRecorder()
	New(b, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/append",
		strings.NewReader(pointsBody(3*core.ShipSize)+"]")))
	if want := fmt.Sprintf("{\"appended\":%d,\"flushed\":false}\n", 3*core.ShipSize); rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("HTTP %d %q, want 200 %q", rec.Code, rec.Body, want)
	}
	if fmt.Sprint(b.batches) != fmt.Sprint([]int{core.ShipSize, core.ShipSize, core.ShipSize}) {
		t.Fatalf("AppendBatch calls of %v points, want three of %d", b.batches, core.ShipSize)
	}
}

// benchTicks is the ticks per append body of BenchmarkHTTPAppend: with
// testDB's two series, a body carries 500 points, the body size of the
// benchmark of record's mixed_http workload.
const benchTicks = 250

// benchStream yields the points of testDB's two series tick by tick: a
// random walk per series, one tick per second.
type benchStream struct {
	rng   *rand.Rand
	tick  int64
	value [2]float32
}

// next returns the points of the next ticks ticks.
func (s *benchStream) next(ticks int) []modelardb.DataPoint {
	pts := make([]modelardb.DataPoint, 0, 2*ticks)
	for range ticks {
		for i := range s.value {
			s.value[i] += float32(s.rng.NormFloat64())
			pts = append(pts, modelardb.DataPoint{Tid: modelardb.Tid(i + 1), TS: s.tick * 1000, Value: s.value[i]})
		}
		s.tick++
	}
	return pts
}

// renderAppendBody renders pts as an append body in the shape the
// benchmark of record posts: {"points":[…]} with every value in the
// shortest text that parses back to the same float32.
func renderAppendBody(pts []modelardb.DataPoint) []byte {
	b := append(make([]byte, 0, 48*len(pts)), `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tid":`...)
		b = strconv.AppendInt(b, int64(p.Tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, p.TS, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, float64(p.Value), 'g', -1, 32)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// renderWriteRequest renders pts as a remote-write body: a
// snappy-compressed WriteRequest with one series per Tid, named by its
// testDB source.
func renderWriteRequest(pts []modelardb.DataPoint) []byte {
	series := []promSeries{
		{Labels: []promLabel{{Name: "__name__", Value: "s1"}}},
		{Labels: []promLabel{{Name: "__name__", Value: "s2"}}},
	}
	for _, p := range pts {
		s := &series[p.Tid-1]
		s.Samples = append(s.Samples, promSample{Value: float64(p.Value), Timestamp: p.TS})
	}
	return snappyEncode(encodeWriteRequest(series))
}

// BenchmarkHTTPAppend posts 500-point bodies through the handler
// (handler), posts the same points as remote-write bodies
// (remote_write) and appends them with DB.AppendBatch (AppendBatch),
// each on its own in-memory database, so the rows' allocs/op differ by
// what each HTTP front door costs. Bodies are built with the timer
// stopped, benchBodies at a time.
func BenchmarkHTTPAppend(b *testing.B) {
	const benchBodies = 64
	b.Run("handler", func(b *testing.B) {
		h := New(testDB(b), Options{}).Handler()
		stream := benchStream{rng: rand.New(rand.NewPCG(1, 2))}
		var bodies [benchBodies][]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%benchBodies == 0 {
				b.StopTimer()
				for j := range bodies {
					bodies[j] = renderAppendBody(stream.next(benchTicks))
				}
				b.StartTimer()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/append", bytes.NewReader(bodies[i%benchBodies])))
			if rec.Code != http.StatusOK {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
		}
	})
	b.Run("remote_write", func(b *testing.B) {
		h := New(testDB(b), Options{}).Handler()
		stream := benchStream{rng: rand.New(rand.NewPCG(1, 2))}
		var bodies [benchBodies][]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%benchBodies == 0 {
				b.StopTimer()
				for j := range bodies {
					bodies[j] = renderWriteRequest(stream.next(benchTicks))
				}
				b.StartTimer()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/prom/write", bytes.NewReader(bodies[i%benchBodies])))
			if rec.Code != http.StatusNoContent {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
		}
	})
	b.Run("AppendBatch", func(b *testing.B) {
		db := testDB(b)
		stream := benchStream{rng: rand.New(rand.NewPCG(1, 2))}
		var batches [benchBodies][]modelardb.DataPoint
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%benchBodies == 0 {
				b.StopTimer()
				for j := range batches {
					batches[j] = stream.next(benchTicks)
				}
				b.StartTimer()
			}
			if err := db.AppendBatch(ctx, batches[i%benchBodies]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
