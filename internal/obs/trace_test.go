package obs

import (
	"bytes"
	"errors"
	"log"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanLifecycle verifies the span contract: every started
// span ends exactly once (double End is a no-op), open-span accounting
// reaches zero, and records carry the right names in start order.
func TestTraceSpanLifecycle(t *testing.T) {
	tr := NewTrace(1, RawSQL("SELECT 1"))
	sp1 := tr.StartSpan(SpanPlan)
	sp2 := tr.StartSpan(SpanScan)
	if got := tr.OpenSpans(); got != 2 {
		t.Fatalf("OpenSpans = %d, want 2", got)
	}
	sp2.End()
	sp2.End() // idempotent
	sp1.End()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans after End = %d, want 0", got)
	}
	tr.Finish()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != SpanPlan || spans[1].Name != SpanScan {
		t.Fatalf("spans = %+v", spans)
	}
	for _, sp := range spans {
		if sp.Duration < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.Duration)
		}
	}
}

// TestTraceConcurrentSpans exercises spans ending on a different
// goroutine than the one that started them (the streaming cursor
// shape) under the race detector.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace(2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		sp := tr.StartSpan(SpanScan)
		wg.Add(1)
		go func(sp Span) {
			defer wg.Done()
			tr.Add(Segments, 3)
			sp.End()
		}(sp)
	}
	wg.Wait()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d, want 0", got)
	}
	if got := tr.Count(Segments); got != 24 {
		t.Fatalf("Count(Segments) = %d, want 24", got)
	}
	if tr.SQL() != "" {
		t.Errorf("nil stringer should render empty SQL")
	}
}

// TestNilTraceIsInert verifies the nil-safe surface the engine's
// untraced path relies on.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan(SpanParse)
	sp.End()
	for c := Count(0); c < NumCounts; c++ {
		tr.Add(c, 1)
	}
	var o *QueryObserver
	o.Observe(tr, nil) // nil observer, nil trace: no panic
}

// TestSlowQueryLogThresholdBoundary pins the inclusive boundary: a
// query exactly at the threshold logs, one nanosecond under does not.
func TestSlowQueryLogThresholdBoundary(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowQueryLog(100*time.Millisecond, log.New(&buf, "", 0))

	under := NewTrace(1, RawSQL("SELECT under"))
	under.SetTotal(100*time.Millisecond - time.Nanosecond)
	if l.MaybeLog(under, nil) {
		t.Error("query under the threshold was logged")
	}

	at := NewTrace(2, RawSQL("SELECT at"))
	at.SetTotal(100 * time.Millisecond)
	at.Add(Segments, 5)
	at.Add(Rows, 2)
	at.Add(FoldedSeries, 7)
	at.Add(DecodedPoints, 9)
	if !l.MaybeLog(at, nil) {
		t.Error("query at the threshold was not logged")
	}
	line := buf.String()
	for _, want := range []string{"slow query id=2", "total=100ms", "segments=5", "rows=2", "folded_series=7", "decoded_points=9", `sql="SELECT at"`} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line %q missing %q", line, want)
		}
	}
	if l.Logged() != 1 {
		t.Errorf("Logged = %d, want 1", l.Logged())
	}
}

// TestSlowQueryLogError verifies a failed slow query carries its error.
func TestSlowQueryLogError(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowQueryLog(0, log.New(&buf, "", 0)) // threshold 0: log everything
	tr := NewTrace(3, RawSQL("SELECT boom"))
	sp := tr.StartSpan(SpanScan)
	sp.End()
	tr.Finish()
	if !l.MaybeLog(tr, errors.New("scan exploded")) {
		t.Fatal("threshold 0 should log every query")
	}
	line := buf.String()
	for _, want := range []string{`err="scan exploded"`, "scan="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line %q missing %q", line, want)
		}
	}
}

// TestObserverFeedsMetrics verifies Observe routes a trace into the
// counters, stage histograms and the slow-query counter.
func TestObserverFeedsMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewQueryMetrics(r)
	var seen *Trace
	o := &QueryObserver{
		Metrics: m,
		SlowLog: NewSlowQueryLog(time.Nanosecond, log.New(&bytes.Buffer{}, "", 0)),
		OnTrace: func(tr *Trace) { seen = tr },
	}
	tr := NewTrace(7, RawSQL("SELECT x"))
	sp := tr.StartSpan(SpanScan)
	tr.Add(Segments, 10)
	tr.Add(Chunks, 2)
	tr.Add(Rows, 4)
	tr.Add(FoldedSeries, 6)
	tr.Add(DecodedPoints, 8)
	sp.End()
	tr.SetTotal(time.Millisecond)
	o.Observe(tr, nil)
	o.Observe(NewTraceWithError(t), errors.New("bad"))

	if m.Queries.Value() != 2 || m.Errors.Value() != 1 {
		t.Errorf("queries=%d errors=%d, want 2/1", m.Queries.Value(), m.Errors.Value())
	}
	if s, c, r := m.Counts[Segments].Value(), m.Counts[Chunks].Value(), m.Counts[Rows].Value(); s != 10 || c != 2 || r != 4 {
		t.Errorf("segments=%d chunks=%d rows=%d", s, c, r)
	}
	if f, d := m.Counts[FoldedSeries].Value(), m.Counts[DecodedPoints].Value(); f != 6 || d != 8 {
		t.Errorf("folded_series=%d decoded_points=%d, want 6/8", f, d)
	}
	if m.Stage[SpanScan].Count() != 1 {
		t.Errorf("scan stage observations = %d, want 1", m.Stage[SpanScan].Count())
	}
	if m.SlowQueries.Value() != 2 {
		t.Errorf("slow queries = %d, want 2", m.SlowQueries.Value())
	}
	if seen == nil {
		t.Error("OnTrace was not invoked")
	}
}

// TestEveryCountReachesEverySurface walks every Count: a distinct n
// added to a trace must read back from Trace.Count, from the registry
// counter modelardb_query_<key>_total after Observe, and as <key>=<n>
// in the slow-query line. The keys are spelled here by hand, so a
// count the table misses, or a surface that skips one, fails.
func TestEveryCountReachesEverySurface(t *testing.T) {
	keys := map[Count]string{
		Segments:      "segments",
		Chunks:        "chunks",
		Rows:          "rows",
		FoldedSeries:  "folded_series",
		DecodedPoints: "decoded_points",
		SelectRuns:    "select_runs",
		ViewValues:    "view_values",
	}
	if len(keys) != int(NumCounts) {
		t.Fatalf("test names %d counts, the table has %d", len(keys), NumCounts)
	}
	r := NewRegistry()
	var buf bytes.Buffer
	o := &QueryObserver{
		Metrics: NewQueryMetrics(r),
		SlowLog: NewSlowQueryLog(0, log.New(&buf, "", 0)),
	}
	tr := NewTrace(9, RawSQL("SELECT counts"))
	for c := Count(0); c < NumCounts; c++ {
		tr.Add(c, int64(101+c))
	}
	tr.Finish()
	o.Observe(tr, nil)
	snap, line := r.Snapshot(), buf.String()
	for c := Count(0); c < NumCounts; c++ {
		key, n := keys[c], int64(101+c)
		if got := tr.Count(c); got != n {
			t.Errorf("%s: Trace.Count = %d, want %d", key, got, n)
		}
		if name := "modelardb_query_" + key + "_total"; snap[name] != float64(n) {
			t.Errorf("%s: registry %s = %g, want %d", key, name, snap[name], n)
		}
		if field := " " + key + "=" + strconv.FormatInt(n, 10) + " "; !strings.Contains(line, field) {
			t.Errorf("%s: slow-query line %q lacks %q", key, line, field)
		}
	}
}

// NewTraceWithError builds a minimal finished trace for observer tests.
func NewTraceWithError(t *testing.T) *Trace {
	t.Helper()
	tr := NewTrace(8, RawSQL("SELECT err"))
	tr.SetTotal(time.Millisecond)
	return tr
}
