package obs

import (
	"bytes"
	"errors"
	"log"
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
			tr.AddSegments(3)
			sp.End()
		}(sp)
	}
	wg.Wait()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d, want 0", got)
	}
	if got := tr.Segments(); got != 24 {
		t.Fatalf("Segments = %d, want 24", got)
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
	tr.AddSegments(1)
	tr.AddChunks(1)
	tr.AddRows(1)
	tr.AddFoldedSeries(1)
	tr.AddDecodedPoints(1)
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
	at.AddSegments(5)
	at.AddRows(2)
	at.AddFoldedSeries(7)
	at.AddDecodedPoints(9)
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
	tr.AddSegments(10)
	tr.AddChunks(2)
	tr.AddRows(4)
	tr.AddFoldedSeries(6)
	tr.AddDecodedPoints(8)
	sp.End()
	tr.SetTotal(time.Millisecond)
	o.Observe(tr, nil)
	o.Observe(NewTraceWithError(t), errors.New("bad"))

	if m.Queries.Value() != 2 || m.Errors.Value() != 1 {
		t.Errorf("queries=%d errors=%d, want 2/1", m.Queries.Value(), m.Errors.Value())
	}
	if m.Segments.Value() != 10 || m.Chunks.Value() != 2 || m.Rows.Value() != 4 {
		t.Errorf("segments=%d chunks=%d rows=%d", m.Segments.Value(), m.Chunks.Value(), m.Rows.Value())
	}
	if m.FoldedSeries.Value() != 6 || m.DecodedPoints.Value() != 8 {
		t.Errorf("folded_series=%d decoded_points=%d, want 6/8", m.FoldedSeries.Value(), m.DecodedPoints.Value())
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

// NewTraceWithError builds a minimal finished trace for observer tests.
func NewTraceWithError(t *testing.T) *Trace {
	t.Helper()
	tr := NewTrace(8, RawSQL("SELECT err"))
	tr.SetTotal(time.Millisecond)
	return tr
}
