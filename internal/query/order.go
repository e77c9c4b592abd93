package query

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// ORDER BY. compile resolves each ORDER BY item against the output
// columns into a sortKey, so an unknown column is a compile error and
// finalize does no name lookup. Aggregate results are small and boxed
// as they are finalized; sortRows orders them with compareAny. A row
// result stays typed until its last step: orderedRows sorts references
// into the column batches with a typed comparator, on every core, and
// boxes only the rows LIMIT keeps.
//
// Both comparators are one total order: NULL first, then NaN, then
// numbers ascending (-0 equals +0), and strings by byte order; DESC
// mirrors the whole order, and cells of different kinds in one boxed
// column order by kind (NULL, int64, float64, string). A total order is
// what makes a stable sort's output a function of its input alone,
// and so what lets orderedRows split the sort without changing it.

// sortKey is one compiled ORDER BY item: the output column it reads,
// that column's type (row results only; aggregate rows are boxed) and
// its direction.
type sortKey struct {
	col  int
	typ  ColType
	desc bool
}

// minSpanRows is the fewest rows a finalize span is given, for the
// sort and for the boxing alike. A span costs a goroutine handoff per
// merge level, and the boxing allocates, so part of its cost is GC work
// that a split does not shorten. Measured on 2 vCPUs, two spans beat one
// from about 8 000 rows (two spans of 4 096) and lose below that. The
// value also splits the 16 000 rows of the gated scatter benchmark, so
// the allocation gate covers the parallel path.
const minSpanRows = 4096

// spanCount is the number of spans finalize splits n rows into: one
// per worker, none shorter than minSpanRows, at least one.
func spanCount(workers, n int) int {
	return max(1, min(workers, n/minSpanRows))
}

// kindRank orders the kinds of boxed cells for compareAny.
func kindRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case int64:
		return 1
	case float64:
		return 2
	case string:
		return 3
	default:
		return 4
	}
}

// compareAny is the total order on boxed cells (see above); cmp.Compare
// already puts NaN below every number and -0 level with +0.
func compareAny(a, b any) int {
	switch av := a.(type) {
	case int64:
		if bv, ok := b.(int64); ok {
			return cmp.Compare(av, bv)
		}
	case float64:
		if bv, ok := b.(float64); ok {
			return cmp.Compare(av, bv)
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv)
		}
	}
	return cmp.Compare(kindRank(a), kindRank(b))
}

// sortRows stably orders boxed aggregate rows by the compiled keys.
func sortRows(rows [][]any, keys []sortKey) {
	if len(keys) == 0 {
		return
	}
	slices.SortStableFunc(rows, func(a, b []any) int {
		for _, k := range keys {
			if c := compareAny(a[k.col], b[k.col]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

// rowRef addresses one row of a finalize input: row row of batch part.
// Sorting 8-byte references moves neither cells nor row headers.
type rowRef struct{ part, row int32 }

// orderedRows boxes the batches' rows into the public result: in
// concatenation order (batch 0's rows, then batch 1's, …) without keys,
// else stably sorted by them; keeping the first limit rows (all when
// limit < 0). The sort and the boxing each run on at most spans
// goroutines, and the rows do not depend on spans.
func orderedRows(bs []*ColumnBatch, keys []sortKey, limit, spans int) [][]any {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	if limit < 0 || limit > n {
		limit = n
	}
	// Unsorted, only the kept rows need a reference.
	want := n
	if len(keys) == 0 {
		want = limit
	}
	refs := getRefs(want)
	defer putRefs(refs)
fill:
	for i, b := range bs {
		for r := range b.Len() {
			if len(refs) == want {
				break fill
			}
			refs = append(refs, rowRef{int32(i), int32(r)})
		}
	}
	out := refs[:limit]
	if len(keys) > 0 {
		spare := getRefs(n)[:n]
		defer putRefs(spare)
		out = sortRefs(refs, spare, spans, limit, refOrder(bs, keys))
	}
	return boxRefs(bs, out, spanCount(spans, len(out)))
}

// refOrder is the typed comparator of rows addressed by references:
// each key reads its column's vector directly, with no boxing.
func refOrder(bs []*ColumnBatch, keys []sortKey) func(a, b rowRef) int {
	return func(a, b rowRef) int {
		ba, bb := bs[a.part], bs[b.part]
		for _, k := range keys {
			var c int
			switch k.typ {
			case ColInt64:
				c = cmp.Compare(ba.i64[k.col][a.row], bb.i64[k.col][b.row])
			case ColFloat64:
				c = cmp.Compare(ba.f64[k.col][a.row], bb.f64[k.col][b.row])
			default:
				c = strings.Compare(ba.str[k.col][a.row], bb.str[k.col][b.row])
			}
			if c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
}

// minRun is the shortest run sortRefs merges: a shorter stretch of
// rows is extended by insertion sort, which beats merging below this
// length.
const minRun = 32

// sortRefs stably sorts refs by compare and returns the first limit of
// them, in refs or in spare, an array of the same length that the
// merges write into. It is a natural merge sort. Each of spans contiguous ranges of
// refs is cut, concurrently, into runs: maximal non-descending
// stretches, each extended to at least minRun rows by insertion sort.
// Neighbouring runs then merge pairwise, level by level, ties going to
// the lower run, each level reading one array and writing the other
// and sharing its merges among spans goroutines. Merged that way, the
// stable sorts of the runs of a sequence give its one stable sort, so
// the result is the same for every span count.
//
// The executor's rows arrive as long runs (a series' points within a
// segment, in time order), and the runs of one merge tend to interleave
// in blocks (series by series), so a merge gallops: it finds how many
// rows of one run come before the other's head by exponential search
// and copies them as a block.
func sortRefs(refs, spare []rowRef, spans, limit int, compare func(a, b rowRef) int) []rowRef {
	spans = max(1, min(spans, len(refs)))
	runs := make([][]int, spans)
	forSpans(spans, spans, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			runs[s] = cutRuns(refs, s*len(refs)/spans, (s+1)*len(refs)/spans, compare)
		}
	})
	bounds := []int{0}
	for _, r := range runs {
		bounds = append(bounds, r...)
	}
	src, dst := refs, spare
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		last := len(bounds) == 3
		forSpans(pairs, min(spans, pairs), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				l, m, h := bounds[2*p], bounds[2*p+1], bounds[2*p+2]
				out := dst[l:h]
				if last {
					out = dst[:limit]
				}
				mergeRuns(out, src[l:m], src[m:h], compare)
			}
		})
		if len(bounds)%2 == 0 {
			// An odd run out passes to the next level unmerged.
			l := bounds[len(bounds)-2]
			copy(dst[l:], src[l:])
		}
		next := bounds[:0]
		for i := 0; i < len(bounds); i += 2 {
			next = append(next, bounds[i])
		}
		if len(bounds)%2 == 0 {
			next = append(next, bounds[len(bounds)-1])
		}
		bounds = next
		src, dst = dst, src
	}
	return src[:limit]
}

// cutRuns sorts refs[lo:hi] into runs, in place, and returns the end of
// each run.
func cutRuns(refs []rowRef, lo, hi int, compare func(a, b rowRef) int) []int {
	var ends []int
	for lo < hi {
		end := lo + 1
		for end < hi && compare(refs[end-1], refs[end]) <= 0 {
			end++
		}
		for stop := min(lo+minRun, hi); end < stop; end++ {
			x, k := refs[end], end
			for k > lo && compare(refs[k-1], x) > 0 {
				refs[k] = refs[k-1]
				k--
			}
			refs[k] = x
		}
		ends = append(ends, end)
		lo = end
	}
	return ends
}

// mergeRuns fills out with the merge of the sorted runs a and b, ties
// taking a's row first, and stops when out is full. It alternates
// between the runs a block at a time: the rows of a up to b's head,
// then the rows of b before a's head.
func mergeRuns(out, a, b []rowRef, compare func(a, b rowRef) int) {
	for len(out) > 0 && len(a) > 0 && len(b) > 0 {
		n := copy(out, a[:gallop(a, b[0], true, compare)])
		out, a = out[n:], a[n:]
		if len(out) == 0 || len(a) == 0 {
			break
		}
		n = copy(out, b[:gallop(b, a[0], false, compare)])
		out, b = out[n:], b[n:]
	}
	n := copy(out, a)
	copy(out[n:], b)
}

// gallop returns how many leading rows of the sorted run sort before x
// (with ties, at x too): it probes rows 0, 1, 3, 7, … until one does
// not, then binary-searches the last stride, so a block of k rows costs
// about 2·log2(k) comparisons.
func gallop(run []rowRef, x rowRef, ties bool, compare func(a, b rowRef) int) int {
	before := func(i int) bool {
		c := compare(run[i], x)
		return c < 0 || ties && c == 0
	}
	lo, hi := 0, 1
	for hi <= len(run) && before(hi-1) {
		lo, hi = hi, 2*hi
	}
	end := min(hi-1, len(run))
	for lo < end {
		m := int(uint(lo+end) >> 1)
		if before(m) {
			lo = m + 1
		} else {
			end = m
		}
	}
	return lo
}

// boxRefs boxes the referenced rows, in order, filling spans contiguous
// ranges concurrently; each range cuts its rows from one flat cell
// array of its own, so the arrays are cleared in parallel too. The
// per-cell cost is the interface boxing the public API demands.
func boxRefs(bs []*ColumnBatch, refs []rowRef, spans int) [][]any {
	rows := make([][]any, len(refs))
	if len(refs) == 0 {
		return rows
	}
	ncols := bs[0].NumCols()
	forSpans(len(refs), spans, func(lo, hi int) {
		cells := make([]any, (hi-lo)*ncols)
		for i := lo; i < hi; i++ {
			row := cells[:ncols:ncols]
			cells = cells[ncols:]
			b, r := bs[refs[i].part], int(refs[i].row)
			for c := range row {
				row[c] = b.ValueAt(r, c)
			}
			rows[i] = row
		}
	})
	return rows
}

// refPool recycles finalize's two reference arrays across queries: at
// 16 bytes a row, allocating them anew for every sorted result would
// bring each GC cycle, and its work beside the next query's scan,
// sooner.
var refPool sync.Pool

// getRefs returns an empty reference array with room for n rows.
func getRefs(n int) []rowRef {
	if p, ok := refPool.Get().(*[]rowRef); ok && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]rowRef, 0, n)
}

// putRefs returns an array to refPool; the caller must not use it
// afterwards.
func putRefs(refs []rowRef) { refPool.Put(&refs) }

// forSpans calls fn on spans contiguous ranges of [0, n) concurrently
// and returns when every call has. The first range runs on the calling
// goroutine, so one span starts no goroutine.
func forSpans(n, spans int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for s := 1; s < spans; s++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(s*n/spans, (s+1)*n/spans)
	}
	fn(0, n/spans)
	wg.Wait()
}
