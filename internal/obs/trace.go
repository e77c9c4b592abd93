package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stage span names used by the query engine. Declared here so the
// metric inventory (one stage histogram per name) and the trace spans
// always agree.
const (
	SpanParse    = "parse"
	SpanPlan     = "plan"
	SpanScan     = "scan"
	SpanFinalize = "finalize"
)

// SpanRecord is one finished (or still-open) stage of a trace.
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	done     bool
}

// Count names one of a query's work counts. The counts table below is
// the whole list: each count is a Trace counter, the registry counter
// modelardb_query_<key>_total (NewQueryMetrics) and the slow-query log
// field <key>=<n> (SlowQueryLog), in table order, so adding a count
// is one constant, one table row and its increment.
type Count int

const (
	Segments      Count = iota // segments scanned
	Chunks                     // parallel scan chunks processed
	Rows                       // result rows produced
	FoldedSeries               // (segment, series) pairs folded on the model
	DecodedPoints              // data points reconstructed from models
	SelectRuns                 // (segment, series) runs a row scan appended
	NumCounts
)

// counts is each Count's key and registry help text.
var counts = [NumCounts]struct{ key, help string }{
	Segments:      {"segments", "Segments scanned by queries."},
	Chunks:        {"chunks", "Parallel scan chunks processed."},
	Rows:          {"rows", "Result rows produced."},
	FoldedSeries:  {"folded_series", "(segment, series) pairs aggregated on the model without reconstructing a point."},
	DecodedPoints: {"decoded_points", "Data points reconstructed from models by queries."},
	SelectRuns:    {"select_runs", "(segment, series) runs row scans appended a column at a time."},
}

// Trace is one query's execution record: stage spans, work counts
// (Count) and the total duration. The engine attaches a Trace to each
// execution when an observer is installed; a finished Trace feeds the
// stage histograms and, past the threshold, the slow-query log.
//
// Spans are started and ended by the engine — possibly from different
// goroutines (a streaming cursor's scan span ends on the producer) —
// so the span table is mutex-guarded and the counters are atomics. The
// per-query cost is one small allocation and a handful of atomic ops.
type Trace struct {
	id    uint64
	sql   fmt.Stringer
	start time.Time
	total atomic.Int64 // duration in nanoseconds; 0 until Finish

	mu    sync.Mutex
	spans []SpanRecord
	open  atomic.Int32

	counts [NumCounts]atomic.Int64
}

// NewTrace starts a trace for a query. sql renders the query text
// lazily — only a slow-query log line or an OnTrace consumer pays for
// the string.
func NewTrace(id uint64, sql fmt.Stringer) *Trace {
	return &Trace{id: id, sql: sql, start: time.Now()}
}

// Span is a handle to one started span; End finishes it. The zero Span
// (from StartSpan on a nil trace) is inert, so untraced paths need no
// branches around End.
type Span struct {
	t   *Trace
	idx int
}

// StartSpan opens a named stage span. Safe on a nil trace.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, SpanRecord{Name: name, Start: time.Now()})
	t.mu.Unlock()
	t.open.Add(1)
	return Span{t: t, idx: idx}
}

// End finishes the span. Idempotent; safe on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	rec := &s.t.spans[s.idx]
	if rec.done {
		s.t.mu.Unlock()
		return
	}
	rec.done = true
	rec.Duration = time.Since(rec.Start)
	s.t.mu.Unlock()
	s.t.open.Add(-1)
}

// OpenSpans returns the number of started spans not yet ended — zero
// for every finished trace (the span-lifecycle invariant tests gate
// on).
func (t *Trace) OpenSpans() int { return int(t.open.Load()) }

// Spans returns a copy of the span table.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Add adds n to count c. Safe on a nil trace.
func (t *Trace) Add(c Count, n int64) {
	if t != nil {
		t.counts[c].Add(n)
	}
}

// Count returns count c.
func (t *Trace) Count(c Count) int64 { return t.counts[c].Load() }

// ID returns the engine-assigned query id.
func (t *Trace) ID() uint64 { return t.id }

// SQL renders the traced query's text.
func (t *Trace) SQL() string {
	if t.sql == nil {
		return ""
	}
	return t.sql.String()
}

// Finish records the total duration. The first call wins; later calls
// are no-ops, so a belt-and-braces double finish cannot shrink a
// recorded total.
func (t *Trace) Finish() {
	t.total.CompareAndSwap(0, int64(time.Since(t.start)))
}

// SetTotal overrides the total duration — for tests and for callers
// replaying externally timed queries into an observer.
func (t *Trace) SetTotal(d time.Duration) { t.total.Store(int64(d)) }

// Total returns the duration recorded by Finish (zero before it).
func (t *Trace) Total() time.Duration { return time.Duration(t.total.Load()) }

// RawSQL adapts a plain SQL string to the fmt.Stringer NewTrace wants.
type RawSQL string

// String returns the string itself.
func (s RawSQL) String() string { return string(s) }
