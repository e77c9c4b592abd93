package query

import (
	"context"
	"log"
	"strings"
	"sync"
	"testing"

	"modelardb/internal/obs"
)

// traceCollector installs an observer on the engine and records every
// finished trace, so tests can assert the span lifecycle end to end.
type traceCollector struct {
	mu     sync.Mutex
	traces []*obs.Trace
}

func (c *traceCollector) install(e *Engine, r *obs.Registry) *obs.QueryMetrics {
	m := obs.NewQueryMetrics(r)
	e.SetObserver(&obs.QueryObserver{
		Metrics: m,
		OnTrace: func(t *obs.Trace) {
			c.mu.Lock()
			c.traces = append(c.traces, t)
			c.mu.Unlock()
		},
	})
	return m
}

func (c *traceCollector) take(t *testing.T) *obs.Trace {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.traces) == 0 {
		t.Fatal("no trace delivered to observer")
	}
	tr := c.traces[len(c.traces)-1]
	c.traces = c.traces[:0]
	return tr
}

// checkClosed asserts the invariant every execution path must uphold:
// by the time a trace reaches the observer, every started span has
// ended and the trace total is stamped.
func checkClosed(t *testing.T, tr *obs.Trace, wantSpans ...string) {
	t.Helper()
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("trace %d delivered with %d open spans", tr.ID(), n)
	}
	if tr.Total() <= 0 {
		t.Fatalf("trace %d has no total duration", tr.ID())
	}
	got := map[string]bool{}
	for _, sp := range tr.Spans() {
		if sp.Duration < 0 {
			t.Fatalf("span %q has negative duration", sp.Name)
		}
		got[sp.Name] = true
	}
	for _, name := range wantSpans {
		if !got[name] {
			t.Fatalf("trace %d missing span %q (have %v)", tr.ID(), name, tr.Spans())
		}
	}
}

// TestObserverExecuteTrace: the one-shot Execute path delivers a
// finished trace with parse/plan/scan/finalize spans and scan counts,
// and the registry counters advance with it.
func TestObserverExecuteTrace(t *testing.T) {
	eng := streamDB(t, "mem")
	eng.SetParallelism(2)
	eng.chunk = 2
	reg := obs.NewRegistry()
	col := &traceCollector{}
	m := col.install(eng, reg)

	const sql = "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid ORDER BY Tid"
	res, err := eng.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	tr := col.take(t)
	checkClosed(t, tr, obs.SpanParse, obs.SpanPlan, obs.SpanScan, obs.SpanFinalize)
	if tr.SQL() != sql {
		t.Fatalf("trace sql = %q, want %q", tr.SQL(), sql)
	}
	if tr.Count(obs.Segments) == 0 {
		t.Fatal("trace counted no segments on a full scan")
	}
	if tr.Count(obs.Chunks) == 0 {
		t.Fatal("trace counted no chunks on a parallel scan")
	}
	if tr.Count(obs.Rows) != int64(len(res.Rows)) {
		t.Fatalf("trace rows = %d, result rows = %d", tr.Count(obs.Rows), len(res.Rows))
	}
	if m.Queries.Value() != 1 || m.Errors.Value() != 0 {
		t.Fatalf("queries=%d errors=%d, want 1/0", m.Queries.Value(), m.Errors.Value())
	}
	if m.Counts[obs.Segments].Value() != tr.Count(obs.Segments) || m.Counts[obs.Rows].Value() != tr.Count(obs.Rows) {
		t.Fatal("counters disagree with the trace they were fed from")
	}
	if m.Seconds.Count() != 1 {
		t.Fatalf("query latency histogram count = %d, want 1", m.Seconds.Count())
	}
	if m.Stage[obs.SpanScan].Count() != 1 {
		t.Fatal("scan stage histogram did not observe")
	}
	if m.QueueWait.Count() == 0 {
		t.Fatal("queue-wait histogram did not observe on a parallel scan")
	}
}

// TestObserverErrorPath: a parse failure still produces a finished
// trace and bumps the error counter.
func TestObserverErrorPath(t *testing.T) {
	eng := streamDB(t, "mem")
	reg := obs.NewRegistry()
	col := &traceCollector{}
	m := col.install(eng, reg)

	if _, err := eng.Execute(context.Background(), "SELECT FROM nothing"); err == nil {
		t.Fatal("expected parse error")
	}
	tr := col.take(t)
	checkClosed(t, tr, obs.SpanParse)
	if m.Errors.Value() != 1 {
		t.Fatalf("error counter = %d, want 1", m.Errors.Value())
	}
}

// TestObserverStreamingCursor: the streaming QueryRows path finishes
// its trace at Close — after the producer drained — with the scan span
// ended and the row count matching what the cursor yielded.
func TestObserverStreamingCursor(t *testing.T) {
	eng := streamDB(t, "mem")
	eng.SetParallelism(2)
	eng.chunk = 2
	reg := obs.NewRegistry()
	col := &traceCollector{}
	col.install(eng, reg)

	// The SQL-level entry: the parse lands on the trace too.
	rows, err := eng.QueryRowsSQL(context.Background(),
		"SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 1")
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("cursor yielded no rows")
	}
	tr := col.take(t)
	checkClosed(t, tr, obs.SpanParse, obs.SpanPlan, obs.SpanScan)
	if tr.Count(obs.Rows) != n {
		t.Fatalf("trace rows = %d, cursor yielded %d", tr.Count(obs.Rows), n)
	}
}

// TestObserverEarlyClose: abandoning a streaming cursor mid-scan must
// still end the scan span and deliver the trace exactly once.
func TestObserverEarlyClose(t *testing.T) {
	eng := streamDB(t, "mem")
	eng.SetParallelism(4)
	eng.chunk = 2
	reg := obs.NewRegistry()
	col := &traceCollector{}
	m := col.install(eng, reg)

	q := mustParse(t, "SELECT Tid, TS, Value FROM DataPoint")
	rows, err := eng.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected at least one row before close")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	tr := col.take(t)
	checkClosed(t, tr, obs.SpanScan)
	if got := m.Queries.Value(); got != 1 {
		t.Fatalf("early close delivered %d traces, want 1", got)
	}
}

// TestObserverPartialPaths: the worker-side partial path, merged into
// one partial or streamed in small chunks, traces like local
// executions, with rows counted from the partial it produces.
func TestObserverPartialPaths(t *testing.T) {
	eng := streamDB(t, "mem")
	eng.SetParallelism(2)
	eng.chunk = 2
	reg := obs.NewRegistry()
	col := &traceCollector{}
	col.install(eng, reg)

	q := mustParse(t, "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 2")
	part, err := partialOf(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	tr := col.take(t)
	checkClosed(t, tr, obs.SpanPlan, obs.SpanScan)
	if tr.Count(obs.Rows) != int64(part.NumRows()) {
		t.Fatalf("trace rows = %d, partial rows = %d", tr.Count(obs.Rows), part.NumRows())
	}
	part.ReleaseBatch()

	chunks := 0
	err = eng.ExecutePartialChunks(context.Background(), q, 1024, func(p *PartialResult) error {
		chunks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("chunked execution emitted nothing")
	}
	tr = col.take(t)
	checkClosed(t, tr, obs.SpanPlan, obs.SpanScan)
	if tr.Count(obs.Segments) == 0 {
		t.Fatal("chunked execution counted no segments")
	}
}

// TestObserverUninstalled: with no observer the engine must not trace
// (beginTrace returns nil and every span call is a no-op), and
// re-installing nil removes a previous observer.
func TestObserverUninstalled(t *testing.T) {
	eng := streamDB(t, "mem")
	reg := obs.NewRegistry()
	col := &traceCollector{}
	m := col.install(eng, reg)
	eng.SetObserver(nil)
	if _, err := eng.Execute(context.Background(), "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid"); err != nil {
		t.Fatal(err)
	}
	if len(col.traces) != 0 || m.Queries.Value() != 0 {
		t.Fatal("uninstalled observer still received traces")
	}
}

// TestObserverSlowLogWiring: a zero threshold logs every query through
// the engine-installed observer and bumps the slow-query counter.
func TestObserverSlowLogWiring(t *testing.T) {
	eng := streamDB(t, "mem")
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	var buf strings.Builder
	eng.SetObserver(&obs.QueryObserver{
		Metrics: m,
		SlowLog: obs.NewSlowQueryLog(0, log.New(&buf, "", 0)),
	})
	const sql = "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid"
	if _, err := eng.Execute(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if m.SlowQueries.Value() != 1 {
		t.Fatalf("slow query counter = %d, want 1", m.SlowQueries.Value())
	}
	line := buf.String()
	for _, want := range []string{"slow query", "scan=", sql} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query line %q missing %q", line, want)
		}
	}
}
