package query

import (
	"slices"
	"sync"
	"sync/atomic"
)

// ColumnBatch is the executor's row representation: one typed vector
// per output column instead of a [][]any of boxed cells. Every stage
// that used to pass boxed rows — the segment projector, the parallel
// workers' per-chunk results, streamed chunk frames, the cursor —
// passes batches instead, so a projected cell costs a typed append
// into a reused vector rather than an interface allocation, and the
// wire encoding is a memcpy of vectors rather than per-cell gob.
//
// The column types are fixed at construction (derived from the plan's
// output schema; see plan.colTypes) and every column holds exactly
// Len() values. Batches are not safe for concurrent use; the parallel
// executor gives each worker chunk its own batch and merges them in
// scan order.
type ColumnBatch struct {
	types []ColType
	n     int
	// Per column, exactly one of the three vectors (matching types[c])
	// is in use; the others stay nil.
	i64 [][]int64
	f64 [][]float64
	str [][]string
	// null marks NULL cells per column, up to the last NULL of the
	// column; nil when the batch has none. Only a finalized aggregate
	// batch has any (appendNull), and it never reaches the wire.
	null [][]bool
	// bytes tracks the estimated in-memory footprint of the appended
	// cells, steering stream-chunk flushes (ByteSize).
	bytes int
}

// ColType is the dynamic type of one batch column. The views expose
// exactly three cell types: timestamps and identifiers are int64,
// reconstructed values are float64, and dimension members (plus the
// Gaps rendering) are strings.
type ColType uint8

const (
	ColInt64 ColType = iota + 1
	ColFloat64
	ColString
)

// goName returns the Go type name Scan error messages use.
func (t ColType) goName() string {
	switch t {
	case ColInt64:
		return "int64"
	case ColFloat64:
		return "float64"
	case ColString:
		return "string"
	default:
		return "unknown"
	}
}

// cellType is the column type of a boxed cell, 0 for any other value.
func cellType(v any) ColType {
	switch v.(type) {
	case int64:
		return ColInt64
	case float64:
		return ColFloat64
	case string:
		return ColString
	}
	return 0
}

// NewColumnBatch returns an empty batch with the given column types.
// The types slice is retained; callers must not mutate it.
func NewColumnBatch(types []ColType) *ColumnBatch {
	b := &ColumnBatch{}
	b.retype(types)
	return b
}

// retype empties the batch for a column layout, keeping the vectors
// of the columns whose type it keeps, so a batch reused for the same
// layout allocates nothing.
func (b *ColumnBatch) retype(types []ColType) {
	b.types = types
	b.n = 0
	b.bytes = 0
	b.null = nil
	n := len(types)
	b.i64 = resliceVecs(b.i64, n)
	b.f64 = resliceVecs(b.f64, n)
	b.str = resliceVecs(b.str, n)
	for c, t := range types {
		switch t {
		case ColInt64:
			b.i64[c] = b.i64[c][:0]
			b.f64[c], b.str[c] = nil, nil
		case ColFloat64:
			b.f64[c] = b.f64[c][:0]
			b.i64[c], b.str[c] = nil, nil
		case ColString:
			b.str[c] = b.str[c][:0]
			b.i64[c], b.f64[c] = nil, nil
		}
	}
}

// resliceVecs resizes a column-vector table to n columns, keeping the
// backing vectors of surviving columns for reuse.
func resliceVecs[T any](vecs [][]T, n int) [][]T {
	if cap(vecs) < n {
		next := make([][]T, n)
		copy(next, vecs)
		return next
	}
	return vecs[:n]
}

// Types returns the batch's column types; callers must not mutate it.
func (b *ColumnBatch) Types() []ColType { return b.types }

// Len returns the number of rows in the batch.
func (b *ColumnBatch) Len() int { return b.n }

// NumCols returns the number of columns.
func (b *ColumnBatch) NumCols() int { return len(b.types) }

// ByteSize estimates the batch's in-memory footprint: 8 bytes per
// numeric cell plus header-and-payload for strings. Like the boxed
// rowSize estimate it replaces, it only steers chunk boundaries.
func (b *ColumnBatch) ByteSize() int { return b.bytes }

// The typed appends fill one cell of the next row; the caller appends
// every column exactly once, then calls finishRow. Finalize's group
// rows (plan.appendGroupRow) are their only writer, so the invariant
// is local.

func (b *ColumnBatch) appendInt64(c int, v int64) {
	b.i64[c] = append(b.i64[c], v)
	b.bytes += 8
}

func (b *ColumnBatch) appendFloat64(c int, v float64) {
	b.f64[c] = append(b.f64[c], v)
	b.bytes += 8
}

func (b *ColumnBatch) appendString(c int, v string) {
	b.str[c] = append(b.str[c], v)
	b.bytes += 16 + len(v)
}

// appendNull fills float64 column c of the next row with NULL: a zero
// in the vector and a mark ValueAt and the sort read. Only an
// aggregate cell is ever NULL, and aggregates are float64.
func (b *ColumnBatch) appendNull(c int) {
	if b.null == nil {
		b.null = make([][]bool, len(b.types))
	}
	for len(b.null[c]) < b.n {
		b.null[c] = append(b.null[c], false)
	}
	b.null[c] = append(b.null[c], true)
	b.appendFloat64(c, 0)
}

func (b *ColumnBatch) finishRow() { b.n++ }

// The run appends fill one column of the next n rows; the caller fills
// every column with the same n, then calls finishRows(n). The row
// projector (plan.appendRun) is their only writer. ByteSize grows by
// exactly what n single-cell appends would add, so a batch filled a
// run at a time sizes, and cuts into chunks, as one filled a row at a
// time.

// fillInt64 appends n copies of v to int64 column c.
func (b *ColumnBatch) fillInt64(c int, v int64, n int) {
	b.i64[c] = fill(b.i64[c], v, n)
	b.bytes += 8 * n
}

// fillString appends n copies of v to string column c; the copies
// share v's backing array.
func (b *ColumnBatch) fillString(c int, v string, n int) {
	b.str[c] = fill(b.str[c], v, n)
	b.bytes += n * (16 + len(v))
}

// appendInt64s appends vs to int64 column c.
func (b *ColumnBatch) appendInt64s(c int, vs []int64) {
	b.i64[c] = append(b.i64[c], vs...)
	b.bytes += 8 * len(vs)
}

// appendFloat64s appends vs to float64 column c.
func (b *ColumnBatch) appendFloat64s(c int, vs []float64) {
	b.f64[c] = append(b.f64[c], vs...)
	b.bytes += 8 * len(vs)
}

func (b *ColumnBatch) finishRows(n int) { b.n += n }

// fill appends n copies of v to vec, growing it at most once.
func fill[T any](vec []T, v T, n int) []T {
	vec = slices.Grow(vec, n)
	for range n {
		vec = append(vec, v)
	}
	return vec
}

// grow makes room for n more rows in every column, so that appending
// them allocates nothing.
func (b *ColumnBatch) grow(n int) {
	for c, t := range b.types {
		switch t {
		case ColInt64:
			b.i64[c] = slices.Grow(b.i64[c], n)
		case ColFloat64:
			b.f64[c] = slices.Grow(b.f64[c], n)
		case ColString:
			b.str[c] = slices.Grow(b.str[c], n)
		}
	}
}

// isNull reports whether the cell at (row, col) is NULL.
func (b *ColumnBatch) isNull(row, col int) bool {
	return col < len(b.null) && row < len(b.null[col]) && b.null[col][row]
}

// Int64At returns the int64 cell at (row, col); the column must be
// ColInt64.
func (b *ColumnBatch) Int64At(row, col int) int64 { return b.i64[col][row] }

// Float64At returns the float64 cell at (row, col); the column must be
// ColFloat64.
func (b *ColumnBatch) Float64At(row, col int) float64 { return b.f64[col][row] }

// StringAt returns the string cell at (row, col); the column must be
// ColString.
func (b *ColumnBatch) StringAt(row, col int) string { return b.str[col][row] }

// ValueAt boxes the cell at (row, col), nil for NULL. The
// compatibility surfaces (Result.Rows, Rows.Row, *any Scan
// destinations) pay this boxing; the typed paths never call it.
func (b *ColumnBatch) ValueAt(row, col int) any {
	if b.isNull(row, col) {
		return nil
	}
	switch b.types[col] {
	case ColInt64:
		return b.i64[col][row]
	case ColFloat64:
		return b.f64[col][row]
	default:
		return b.str[col][row]
	}
}

// AppendBatch appends a copy of src's rows; src must have the same
// column layout.
func (b *ColumnBatch) AppendBatch(src *ColumnBatch) { b.appendRows(src, 0, src.n) }

// Clone returns a copy of b in a pooled batch, for a consumer that
// keeps rows past the call that lent it b. Its owner hands it back
// (PartialResult.ReleaseBatch) once it is done with the rows.
func (b *ColumnBatch) Clone() *ColumnBatch {
	c := getBatch(b.types)
	c.AppendBatch(b)
	return c
}

// appendRows appends a copy of src's rows lo to hi (exclusive), one
// vector at a time; src must have the same column layout.
func (b *ColumnBatch) appendRows(src *ColumnBatch, lo, hi int) {
	for c, t := range b.types {
		switch t {
		case ColInt64:
			b.i64[c] = append(b.i64[c], src.i64[c][lo:hi]...)
			b.bytes += 8 * (hi - lo)
		case ColFloat64:
			b.f64[c] = append(b.f64[c], src.f64[c][lo:hi]...)
			b.bytes += 8 * (hi - lo)
		case ColString:
			strs := src.str[c][lo:hi]
			b.str[c] = append(b.str[c], strs...)
			for _, s := range strs {
				b.bytes += 16 + len(s)
			}
		}
	}
	b.n += hi - lo
}

// cutRow returns where a run of src's rows from lo, appended to b,
// brings ByteSize to limit: one past the first row whose append
// reaches it, src.Len() if none does. It is the row at which appending
// row by row and checking ByteSize after each would stop.
func (b *ColumnBatch) cutRow(src *ColumnBatch, lo, limit int) int {
	fixed, strs := 0, false
	for _, t := range b.types {
		if t == ColString {
			strs = true
		} else {
			fixed += 8
		}
	}
	size := b.bytes
	if !strs {
		if fixed == 0 {
			return src.n
		}
		return min(src.n, lo+max(1, (limit-size+fixed-1)/fixed))
	}
	for r := lo; r < src.n; r++ {
		size += fixed
		for c, t := range b.types {
			if t == ColString {
				size += 16 + len(src.str[c][r])
			}
		}
		if size >= limit {
			return r + 1
		}
	}
	return src.n
}

// Truncate keeps the first n rows (LIMIT on a streaming producer).
func (b *ColumnBatch) Truncate(n int) {
	if n >= b.n {
		return
	}
	for c, t := range b.types {
		switch t {
		case ColInt64:
			b.i64[c] = b.i64[c][:n]
		case ColFloat64:
			b.f64[c] = b.f64[c][:n]
		case ColString:
			b.str[c] = b.str[c][:n]
		}
	}
	b.n = n
	// bytes is a flush estimate; a truncated batch is about to be
	// handed off, so recomputing it buys nothing.
}

// batchPool recycles batches across queries and across the parallel
// worker pool: a released batch keeps its vectors, and getBatch hands
// them back resliced to length zero, so a steady stream of per-chunk
// batches allocates vectors only until the pool warms up.
var batchPool = sync.Pool{New: func() any { return &ColumnBatch{} }}

// pooledGets and pooledPuts count getBatch and release calls; their
// difference is the number of pooled batches some owner still holds
// (PoolCounts).
var pooledGets, pooledPuts atomic.Int64

// PoolCounts returns how many batches were taken from the package pool
// and how many were handed back. A caller that owns batches — a
// cluster master holding decoded chunks — can check, around a query,
// that it released every one it took.
func PoolCounts() (gets, puts int64) { return pooledGets.Load(), pooledPuts.Load() }

// getBatch returns an empty pooled batch with the given column types.
func getBatch(types []ColType) *ColumnBatch {
	pooledGets.Add(1)
	b := batchPool.Get().(*ColumnBatch)
	b.retype(types)
	return b
}

// release returns the batch to the pool. The caller must not touch it
// afterwards. Values previously copied out of the batch (Scan, boxed
// Result rows) stay valid: numeric cells are copied by value and
// string cells share immutable backing arrays that reuse never
// overwrites.
func (b *ColumnBatch) release() {
	if b == nil {
		return
	}
	pooledPuts.Add(1)
	batchPool.Put(b)
}
