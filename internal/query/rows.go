package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"modelardb/internal/obs"
	"modelardb/internal/sqlparse"
)

// Rows is a database/sql-style streaming cursor over a query's result.
// Non-aggregate queries without ORDER BY stream rows incrementally from
// the scan — the parallel executor's in-order merge feeds the cursor
// batch by batch, so the first row is available long before the scan
// completes and an early Close (or a cancelled context) stops the scan
// and drains the worker pool within one chunk of work per goroutine.
// Aggregate and ORDER BY queries cannot produce a row before the whole
// scan finishes; for those the cursor finalizes the result first, as
// Execute does, and then walks its rows in result order, so the API is
// uniform across query shapes.
//
// Either way the rows live in typed columnar batches: Scan into typed
// destinations copies straight out of the column vectors without
// boxing a single cell, and a consumed batch goes back to the package
// pool. Values a caller has Scanned stay valid after the batch is
// recycled — numerics are copied, and string cells share immutable
// backing arrays that pool reuse never overwrites.
//
// A Rows must be used from a single goroutine:
//
//	rows, err := eng.QueryRows(ctx, q)
//	...
//	defer rows.Close()
//	for rows.Next() {
//		var tid, ts int64
//		var v float64
//		if err := rows.Scan(&tid, &ts, &v); err != nil ...
//	}
//	if err := rows.Err(); err != nil ...
type Rows struct {
	cols  []string
	types []ColType

	// The current row is row row of cur. A streaming cursor receives
	// its batches from the producer; batches is nil once the producer
	// has finished, and the cursor releases each batch to the pool as
	// iteration moves past it. A finalized cursor walks done's rows,
	// next being the index of the next one in done.order.
	batches chan *ColumnBatch
	errc    chan error
	cancel  context.CancelFunc
	done    *finalized
	next    int
	cur     *ColumnBatch
	row     int

	onRow   bool
	scratch []any // reused boxed row backing Row()
	err     error
	closed  bool

	// Streaming-mode observability: nrows counts rows delivered and
	// finish (set when the engine traces) completes the query's trace on
	// Close — a streaming query's total includes iteration time, since
	// the scan runs concurrently with it.
	nrows  int64
	finish func(rows int64, err error)
}

// errRowsLimit stops a streaming producer once LIMIT rows were
// delivered; it never escapes to callers.
var errRowsLimit = errors.New("query: row limit reached")

// QueryRowsSQL parses sql and returns a streaming cursor. The parse
// runs inside the query trace, so stage histograms and the slow-query
// log cover the streaming path the same way they cover Execute.
func (e *Engine) QueryRowsSQL(ctx context.Context, sql string) (*Rows, error) {
	tr := e.beginTrace(obs.RawSQL(sql))
	sp := tr.StartSpan(obs.SpanParse)
	q, err := sqlparse.Parse(sql)
	sp.End()
	if err != nil {
		e.finishTrace(tr, err)
		return nil, err
	}
	return e.queryRowsTraced(ctx, q, tr)
}

// QueryRows executes a parsed query and returns a streaming cursor.
// Cancelling ctx aborts the underlying scan; Close releases the cursor
// early and drains the executor's worker pool.
func (e *Engine) QueryRows(ctx context.Context, q *sqlparse.Query) (*Rows, error) {
	return e.queryRowsTraced(ctx, q, e.beginTrace(q))
}

func (e *Engine) queryRowsTraced(ctx context.Context, q *sqlparse.Query, tr *obs.Trace) (*Rows, error) {
	sp := tr.StartSpan(obs.SpanPlan)
	p, err := e.compile(q)
	sp.End()
	if err != nil {
		e.finishTrace(tr, err)
		return nil, err
	}
	p.trace = tr
	r := &Rows{cols: p.outColumns, types: p.colTypes}
	if p.isAggregate || len(q.OrderBy) > 0 {
		// No row can be emitted before the scan completes: run the query
		// to completion and walk the finalized rows. The query's work
		// ends here, so its trace does too.
		err := e.run(ctx, p, func(f *finalized) { r.done = f })
		e.finishTrace(tr, err)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	rctx, cancel := context.WithCancel(ctx)
	r.batches = make(chan *ColumnBatch, 1)
	r.errc = make(chan error, 1)
	r.cancel = cancel
	if tr != nil {
		r.finish = func(rows int64, err error) {
			tr.Add(obs.Rows, rows)
			e.finishTrace(tr, err)
		}
	}
	// The scan span ends on the producer goroutine; Close waits the
	// producer out before finishing the trace, so End happens-before
	// Finish.
	go e.streamRows(ctx, rctx, p, q.Limit, r, tr.StartSpan(obs.SpanScan))
	return r, nil
}

// streamRows is the cursor's producer goroutine: it runs the scan,
// hands pooled row batches to the cursor in scan order and reports the
// terminal error. Batch ownership transfers through the channel — the
// producer never touches a batch after a successful send. ctx is the
// caller's context, rctx the cursor-scoped one cancelled by Close.
func (e *Engine) streamRows(ctx, rctx context.Context, p *plan, limit int, r *Rows, scanSpan obs.Span) {
	sent := 0
	push := func(b *ColumnBatch) error {
		if b.Len() == 0 {
			b.release()
			return nil
		}
		if limit >= 0 {
			if sent >= limit {
				b.release()
				return errRowsLimit
			}
			if sent+b.Len() > limit {
				b.Truncate(limit - sent)
			}
		}
		n := b.Len()
		select {
		case r.batches <- b:
			sent += n
		case <-rctx.Done():
			b.release()
			return rctx.Err()
		}
		if limit >= 0 && sent >= limit {
			return errRowsLimit
		}
		return nil
	}
	// scan has added every scratch tally to the trace by the time it
	// returns, before errc lets Close finish the trace.
	err := e.scan(rctx, p, (*Engine).selectChunk, func(part any) error {
		return push(part.(*ColumnBatch))
	})
	switch {
	case errors.Is(err, errRowsLimit):
		// LIMIT satisfied: a clean end of the stream.
		err = nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Either the caller's context fired (report its error) or the
		// cursor itself was closed early (a clean stop: ctx is intact).
		err = ctx.Err()
	}
	scanSpan.End()
	r.errc <- err
	close(r.batches)
}

// Columns returns the result's column labels.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, returning false when no more rows are
// available — because the result is exhausted, an error occurred or the
// cursor was closed. After Next returns false, Err separates clean
// exhaustion from failure.
func (r *Rows) Next() bool {
	r.onRow = false
	if r.closed || r.err != nil {
		return false
	}
	if r.done != nil {
		if r.next == len(r.done.order) {
			return false
		}
		ref := r.done.order[r.next]
		r.next++
		r.cur, r.row = r.done.bs[ref.part], int(ref.row)
	} else {
		r.row++
		for r.cur == nil || r.row >= r.cur.Len() {
			r.cur.release()
			r.cur = nil
			if r.batches == nil {
				return false
			}
			batch, ok := <-r.batches
			if !ok {
				r.err = <-r.errc
				r.batches = nil
				return false
			}
			r.cur, r.row = batch, 0
		}
	}
	r.nrows++
	r.onRow = true
	return true
}

// Row returns the current row's values. The slice and its contents
// are only valid until the next call to Next or Row; callers that
// retain rows must copy. Scan into typed destinations avoids the
// boxing entirely.
func (r *Rows) Row() []any {
	if !r.onRow {
		return nil
	}
	if len(r.scratch) != len(r.types) {
		r.scratch = make([]any, len(r.types))
	}
	for c := range r.scratch {
		r.scratch[c] = r.cur.ValueAt(r.row, c)
	}
	return r.scratch
}

// Scan copies the current row into dest, which must hold one pointer
// per column: *any accepts every value, and *int64, *float64, *string
// must match the column's type. A typed destination copies straight
// from the column vector — no allocation per row.
func (r *Rows) Scan(dest ...any) error {
	if !r.onRow {
		return errors.New("query: Scan called without a successful Next")
	}
	if len(dest) != len(r.types) {
		return fmt.Errorf("query: Scan got %d destinations for %d columns", len(dest), len(r.types))
	}
	for c, d := range dest {
		switch p := d.(type) {
		case *any:
			*p = r.cur.ValueAt(r.row, c)
		case *int64:
			if r.types[c] != ColInt64 {
				return fmt.Errorf("query: column %s is %s, not int64", r.cols[c], r.types[c].goName())
			}
			*p = r.cur.Int64At(r.row, c)
		case *float64:
			if r.types[c] != ColFloat64 {
				return fmt.Errorf("query: column %s is %s, not float64", r.cols[c], r.types[c].goName())
			}
			*p = r.cur.Float64At(r.row, c)
		case *string:
			if r.types[c] != ColString {
				return fmt.Errorf("query: column %s is %s, not string", r.cols[c], r.types[c].goName())
			}
			*p = r.cur.StringAt(r.row, c)
		default:
			return fmt.Errorf("query: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// TextFormat is a text rendering of result rows: AppendRow writes one
// row in it and AppendHeader the column labels. Every text surface —
// the HTTP API's CSV and JSON bodies, the line protocol and
// DB.WriteCSV — writes its header with AppendHeader and its rows with
// WriteText, so they agree byte for byte on how a cell is spelled.
type TextFormat uint8

const (
	// TextCSV is RFC 4180 as encoding/csv writes it: ',' between cells,
	// '\n' after the row, and a string cell quoted, with '"' doubled,
	// exactly when encoding/csv would quote it.
	TextCSV TextFormat = iota
	// TextTSV is the line protocol's rendering: '\t' between cells,
	// '\n' after the row and strings written verbatim.
	TextTSV
	// TextJSON renders the row as a JSON array. NaN, ±Inf and NULL,
	// which JSON cannot spell as numbers, become null.
	TextJSON
)

// textBlockSize is the size of WriteText's blocks. A block is larger
// than an HTTP connection's own buffers, so writing it puts it on the
// socket without an explicit Flush.
const textBlockSize = 32 << 10

// WriteText renders the remaining rows in f after the caller's prefix
// dst, JSON rows separated by ',', and writes the buffer to w, then
// reuses it, each time it holds textBlockSize bytes. It returns the unwritten tail, for
// the caller to finish with its trailer, and the rows rendered. A
// failed write ends the render and is returned, so a client that hangs
// up stops it even when the cursor is finalized and never looks at its
// context again; the caller's Close releases the cursor. A query error
// also ends it, and is left to Err.
func (r *Rows) WriteText(w io.Writer, dst []byte, f TextFormat) (tail []byte, n int64, err error) {
	for r.Next() {
		if f == TextJSON && n > 0 {
			dst = append(dst, ',')
		}
		dst = r.AppendRow(dst, f)
		n++
		if len(dst) >= textBlockSize {
			if _, err := w.Write(dst); err != nil {
				return nil, n, err
			}
			dst = dst[:0]
		}
	}
	return dst, n, nil
}

// AppendRow appends the current row rendered in f to dst and returns
// the extended slice. It reads the typed column vectors, so no cell is
// boxed and no per-cell string is made. A float cell is spelled as
// strconv.AppendFloat(v, 'g', -1, 64) spells it, by appendFloat. In
// CSV and TSV a NULL cell renders as the zero its vector holds; in
// JSON it is null.
func (r *Rows) AppendRow(dst []byte, f TextFormat) []byte {
	if !r.onRow {
		return dst
	}
	b, row := r.cur, r.row
	sep := byte(',')
	switch f {
	case TextTSV:
		sep = '\t'
	case TextJSON:
		dst = append(dst, '[')
	}
	for c, t := range r.types {
		if c > 0 {
			dst = append(dst, sep)
		}
		switch t {
		case ColInt64:
			dst = strconv.AppendInt(dst, b.i64[c][row], 10)
		case ColFloat64:
			v := b.f64[c][row]
			if f == TextJSON && (math.IsNaN(v) || math.IsInf(v, 0) || b.isNull(row, c)) {
				dst = append(dst, "null"...)
			} else {
				dst = appendFloat(dst, v)
			}
		default:
			dst = f.AppendString(dst, b.str[c][row])
		}
	}
	if f == TextJSON {
		return append(dst, ']')
	}
	return append(dst, '\n')
}

// AppendHeader appends the column labels rendered in f as one row of
// string cells: a CSV or TSV header line, or a JSON array of strings.
func (r *Rows) AppendHeader(dst []byte, f TextFormat) []byte {
	sep := byte(',')
	switch f {
	case TextTSV:
		sep = '\t'
	case TextJSON:
		dst = append(dst, '[')
	}
	for c, col := range r.cols {
		if c > 0 {
			dst = append(dst, sep)
		}
		dst = f.AppendString(dst, col)
	}
	if f == TextJSON {
		return append(dst, ']')
	}
	return append(dst, '\n')
}

// AppendString appends s rendered as one string cell of f.
func (f TextFormat) AppendString(dst []byte, s string) []byte {
	switch f {
	case TextCSV:
		if !csvNeedsQuotes(s) {
			return append(dst, s...)
		}
		dst = append(dst, '"')
		for i := 0; i < len(s); i++ {
			if s[i] == '"' {
				dst = append(dst, '"')
			}
			dst = append(dst, s[i])
		}
		return append(dst, '"')
	case TextJSON:
		dst = append(dst, '"')
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case c < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				dst = append(dst, c)
			}
		}
		return append(dst, '"')
	default:
		return append(dst, s...)
	}
}

const hexDigits = "0123456789abcdef"

// csvNeedsQuotes reports whether encoding/csv quotes field: when it
// holds the separator, a quote, CR or LF, when it is `\.`, or when it
// starts with a Unicode space.
func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// Err returns the error that terminated iteration, if any. A cursor
// closed early, or one that delivered all rows, reports nil.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: the scan is cancelled, the worker pool
// drained and buffered batches returned to the pool. Close is
// idempotent and safe after exhaustion; it never discards a real query
// error already observed (Err stays set). Values Scanned before Close
// remain valid — the pool only ever overwrites vector cells, never the
// string backings or copied numerics a caller holds.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.onRow = false
	if r.cancel != nil {
		r.cancel()
	}
	if r.batches != nil {
		// Unblock and wait out the producer so no goroutine outlives the
		// cursor; its terminal error is irrelevant after an early close.
		r.cur.release()
		for b := range r.batches {
			b.release()
		}
		<-r.errc
		r.batches = nil
	}
	if r.done != nil {
		r.done.release()
		r.done = nil
	}
	r.cur, r.scratch = nil, nil
	if r.finish != nil {
		// The producer has drained (above), so the scan span is ended and
		// the trace can complete with the rows actually delivered.
		f := r.finish
		r.finish = nil
		f(r.nrows, r.err)
	}
	return nil
}
