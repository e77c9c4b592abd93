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

// Trace is one query's execution record: stage spans, work counters
// (segments scanned, scan chunks, rows returned, series folded on
// their model, points reconstructed, row runs appended) and the total
// duration. The engine attaches a Trace to each execution when an
// observer is installed; a finished Trace feeds the stage histograms
// and, past the threshold, the slow-query log.
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

	segments      atomic.Int64
	chunks        atomic.Int64
	rows          atomic.Int64
	foldedSeries  atomic.Int64
	decodedPoints atomic.Int64
	selectRuns    atomic.Int64
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

// AddSegments counts segments scanned. Safe on a nil trace.
func (t *Trace) AddSegments(n int64) {
	if t != nil {
		t.segments.Add(n)
	}
}

// AddChunks counts parallel scan chunks processed. Safe on a nil trace.
func (t *Trace) AddChunks(n int64) {
	if t != nil {
		t.chunks.Add(n)
	}
}

// AddRows counts result rows produced. Safe on a nil trace.
func (t *Trace) AddRows(n int64) {
	if t != nil {
		t.rows.Add(n)
	}
}

// AddFoldedSeries counts (segment, series) pairs an aggregate answered
// from the model's range aggregates, reconstructing no point. Safe on
// a nil trace.
func (t *Trace) AddFoldedSeries(n int64) {
	if t != nil {
		t.foldedSeries.Add(n)
	}
}

// AddDecodedPoints counts data points reconstructed from models, by a
// row scan or by an aggregate a point predicate forced off the fold.
// Safe on a nil trace.
func (t *Trace) AddDecodedPoints(n int64) {
	if t != nil {
		t.decodedPoints.Add(n)
	}
}

// AddSelectRuns counts the runs a row scan appended: one per (segment,
// series) that contributed rows, each filled a column at a time. Safe
// on a nil trace.
func (t *Trace) AddSelectRuns(n int64) {
	if t != nil {
		t.selectRuns.Add(n)
	}
}

// Segments returns the segments-scanned count.
func (t *Trace) Segments() int64 { return t.segments.Load() }

// Chunks returns the scan-chunk count.
func (t *Trace) Chunks() int64 { return t.chunks.Load() }

// Rows returns the result-row count.
func (t *Trace) Rows() int64 { return t.rows.Load() }

// FoldedSeries returns the folded (segment, series) count.
func (t *Trace) FoldedSeries() int64 { return t.foldedSeries.Load() }

// DecodedPoints returns the reconstructed-point count.
func (t *Trace) DecodedPoints() int64 { return t.decodedPoints.Load() }

// SelectRuns returns the row scan's run count.
func (t *Trace) SelectRuns() int64 { return t.selectRuns.Load() }

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
