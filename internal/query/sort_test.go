package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"modelardb/internal/models"
	"modelardb/internal/sqlparse"
)

// refCompare is the ORDER BY order written out independently of
// compareAny, as the oracle for both sorts: NULL, then int64, then
// float64 with NaN before every number, then strings by byte order.
func refCompare(a, b any) int {
	rank := func(v any) int {
		switch x := v.(type) {
		case nil:
			return 0
		case int64:
			return 1
		case float64:
			if math.IsNaN(x) {
				return 2
			}
			return 3
		case string:
			return 4
		}
		return 5
	}
	sign := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	if ra, rb := rank(a), rank(b); ra != rb || ra == 2 {
		return sign(ra < rb, ra > rb)
	}
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		return sign(x < y, x > y)
	case float64:
		y := b.(float64)
		return sign(x < y, x > y)
	case string:
		y := b.(string)
		return sign(x < y, x > y)
	}
	return 0
}

// refSortRows is a reflection-based stable sort, the oracle for
// sortRows and orderedRows: ORDER BY keys compared left to right by
// refCompare, DESC negating it, ties keeping their input order.
func refSortRows(rows [][]any, keys []sortKey) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			c := refCompare(rows[a][k.col], rows[b][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// TestSortRowsMatchesStableReference sorts random results with many
// duplicate keys, mixed ASC/DESC keys and int64, float64 (NaN and ±0
// included), string and nil cells, and requires the reference's order
// row for row. The last column numbers the input rows, so a tie broken
// differently shows.
func TestSortRowsMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cell := func(kind int) any {
		switch kind {
		case 0:
			return int64(rng.Intn(5))
		case 1:
			return []float64{math.NaN(), math.Copysign(0, -1), 0, 0.5, 1.5}[rng.Intn(5)]
		case 2:
			return []string{"", "a", "b", "ab"}[rng.Intn(4)]
		default:
			return nil
		}
	}
	for trial := 0; trial < 300; trial++ {
		ncols := 1 + rng.Intn(4)
		kinds := make([]int, ncols)
		for c := range kinds {
			kinds[c] = rng.Intn(4)
		}
		rows := make([][]any, rng.Intn(300))
		for r := range rows {
			row := make([]any, ncols+1)
			for c, kind := range kinds {
				// Mostly the column's kind, sometimes a stray nil or a
				// cell of another kind.
				switch rng.Intn(10) {
				case 0:
					row[c] = nil
				case 1:
					row[c] = cell(rng.Intn(4))
				default:
					row[c] = cell(kind)
				}
			}
			row[ncols] = int64(r)
			rows[r] = row
		}
		keys := make([]sortKey, 1+rng.Intn(ncols))
		for i := range keys {
			keys[i] = sortKey{col: rng.Intn(ncols), desc: rng.Intn(2) == 0}
		}
		want := make([][]any, len(rows))
		copy(want, rows)
		refSortRows(want, keys)
		sortRows(rows, keys)
		if !sameRows(rows, want) {
			t.Fatalf("trial %d: ORDER BY %+v:\n got %v\nwant %v", trial, keys, rows, want)
		}
	}
}

// sameRows compares boxed rows cell by cell, a NaN equal to a NaN and
// -0 distinct from +0, so a reordered zero shows.
func sameRows(got, want [][]any) bool {
	if len(got) != len(want) {
		return false
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			return false
		}
		for c := range got[r] {
			g, gok := got[r][c].(float64)
			w, wok := want[r][c].(float64)
			if gok && wok {
				if math.Float64bits(g) != math.Float64bits(w) {
					return false
				}
			} else if !reflect.DeepEqual(got[r][c], want[r][c]) {
				return false
			}
		}
	}
	return true
}

// TestOrderByNaNAndNullFirst pins the total order on the keys that
// used to compare equal to everything, which left results unsorted:
// NULL first, then NaN, then numbers, and DESC the exact mirror.
func TestOrderByNaNAndNullFirst(t *testing.T) {
	nan := math.NaN()
	asc := []sortKey{{col: 0}}
	desc := []sortKey{{col: 0, desc: true}}
	for _, tc := range []struct {
		in, asc, desc [][]any
	}{
		{[][]any{{3.0}, {nan}, {1.0}}, [][]any{{nan}, {1.0}, {3.0}}, [][]any{{3.0}, {1.0}, {nan}}},
		{[][]any{{int64(3)}, {nil}, {int64(1)}}, [][]any{{nil}, {int64(1)}, {int64(3)}}, [][]any{{int64(3)}, {int64(1)}, {nil}}},
		{[][]any{{2.0}, {nil}, {nan}, {-1.0}, {nil}}, [][]any{{nil}, {nil}, {nan}, {-1.0}, {2.0}}, [][]any{{2.0}, {-1.0}, {nan}, {nil}, {nil}}},
	} {
		for _, c := range []struct {
			keys []sortKey
			want [][]any
		}{{asc, tc.asc}, {desc, tc.desc}} {
			got := append([][]any(nil), tc.in...)
			sortRows(got, c.keys)
			if !sameRows(got, c.want) {
				t.Errorf("sortRows(%v, desc=%v) = %v, want %v", tc.in, c.keys[0].desc, got, c.want)
			}
		}
	}
	// The typed path: a float64 column with NaN and ±0, in two batches.
	b0, b1 := NewColumnBatch([]ColType{ColFloat64}), NewColumnBatch([]ColType{ColFloat64})
	for _, v := range []float64{2, nan, 0} {
		b0.appendFloat64(0, v)
		b0.finishRow()
	}
	for _, v := range []float64{math.Copysign(0, -1), nan, -3} {
		b1.appendFloat64(0, v)
		b1.finishRow()
	}
	negZero := math.Copysign(0, -1)
	for spans := 1; spans <= 3; spans++ {
		got := orderedRows([]*ColumnBatch{b0, b1}, []sortKey{{col: 0, typ: ColFloat64}}, -1, spans)
		want := [][]any{{nan}, {nan}, {-3.0}, {0.0}, {negZero}, {2.0}}
		if !sameRows(got, want) {
			t.Errorf("spans %d: orderedRows = %v, want %v", spans, got, want)
		}
	}
}

// TestOrderedRowsMatchesReference is the differential test of the typed
// finalize: random int64, float64 (NaN, ±0 and duplicates) and string
// columns split over one to four batches, sorted by one to three keys
// in either direction, with and without LIMIT, at every span count from
// one to eight, must box the rows the reference sort of the
// concatenated boxed rows gives, row for row. The last column numbers
// the rows in concatenation order, so a tie broken differently shows.
func TestOrderedRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, -1.25, 0.5, 7, math.Inf(1)}
	strs := []string{"", "a", "ab", "b", "\xff"}
	for trial := 0; trial < 200; trial++ {
		ncols := 1 + rng.Intn(3)
		types := make([]ColType, ncols+1)
		for c := range ncols {
			types[c] = ColType(1 + rng.Intn(3))
		}
		types[ncols] = ColInt64
		var bs []*ColumnBatch
		var all [][]any
		for range 1 + rng.Intn(4) {
			b := NewColumnBatch(types)
			for range rng.Intn(400) {
				for c, typ := range types[:ncols] {
					switch typ {
					case ColInt64:
						b.appendInt64(c, int64(rng.Intn(6)-2))
					case ColFloat64:
						b.appendFloat64(c, floats[rng.Intn(len(floats))])
					default:
						b.appendString(c, strs[rng.Intn(len(strs))])
					}
				}
				b.appendInt64(ncols, int64(len(all)))
				b.finishRow()
				row := make([]any, len(types))
				for c := range row {
					row[c] = b.ValueAt(b.Len()-1, c)
				}
				all = append(all, row)
			}
			bs = append(bs, b)
		}
		keys := make([]sortKey, 1+rng.Intn(3))
		for i := range keys {
			col := rng.Intn(ncols)
			keys[i] = sortKey{col: col, typ: types[col], desc: rng.Intn(2) == 0}
		}
		limit := -1
		if rng.Intn(2) == 0 {
			limit = rng.Intn(len(all) + 2)
		}
		want := append([][]any(nil), all...)
		refSortRows(want, keys)
		if limit >= 0 && limit < len(want) {
			want = want[:limit]
		}
		for spans := 1; spans <= 8; spans++ {
			got := orderedRows(bs, keys, limit, spans)
			if !sameRows(got, want) {
				t.Fatalf("trial %d, %d batches, ORDER BY %+v LIMIT %d, spans %d:\n got %v\nwant %v",
					trial, len(bs), keys, limit, spans, got, want)
			}
		}
		// Without keys the rows keep concatenation order.
		want = all
		if limit >= 0 && limit < len(want) {
			want = want[:limit]
		}
		if got := orderedRows(bs, nil, limit, 1+rng.Intn(8)); !sameRows(got, want) {
			t.Fatalf("trial %d: unsorted rows reordered", trial)
		}
	}
}

// TestOrderedRowsSpansAboveMinimum runs the typed sort at the sizes
// finalize actually splits (spanCount), where each span holds
// thousands of rows and the merge levels are long.
func TestOrderedRowsSpansAboveMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []ColType{ColInt64, ColInt64, ColFloat64}
	var bs []*ColumnBatch
	var all [][]any
	for range 2 {
		b := NewColumnBatch(types)
		for i := range 3 * minSpanRows {
			b.appendInt64(0, int64(rng.Intn(8)))
			b.appendInt64(1, int64(i/97))
			b.appendFloat64(2, float64(rng.Intn(50)))
			b.finishRow()
			all = append(all, []any{b.ValueAt(i, 0), b.ValueAt(i, 1), b.ValueAt(i, 2)})
		}
		bs = append(bs, b)
	}
	keys := []sortKey{{col: 0, typ: ColInt64}, {col: 2, typ: ColFloat64, desc: true}}
	want := append([][]any(nil), all...)
	refSortRows(want, keys)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		spans := spanCount(workers, len(all))
		if workers > 1 && spans < 2 {
			t.Fatalf("spanCount(%d, %d) = %d: the test does not split", workers, len(all), spans)
		}
		if got := orderedRows(bs, keys, -1, spans); !sameRows(got, want) {
			t.Fatalf("workers %d (%d spans): rows differ from the reference", workers, spans)
		}
	}
}

// TestFinalizeRejectsForeignLayout: the typed comparator reads the
// columns the plan says the rows have, so a partial whose batch has
// another layout — a peer running a different plan — is an error, not
// a misread column.
func TestFinalizeRejectsForeignLayout(t *testing.T) {
	f := newFixture(t)
	q, err := sqlparse.Parse("SELECT Tid, TS, Value FROM DataPoint ORDER BY Value")
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewColumnBatch([]ColType{ColInt64, ColString})
	foreign.appendInt64(0, 1)
	foreign.appendString(1, "x")
	foreign.finishRow()
	if _, err := f.eng.Finalize(q, []*PartialResult{{Batch: foreign}}); err == nil {
		t.Fatal("a batch of another layout finalized")
	}
	own := NewColumnBatch([]ColType{ColInt64, ColInt64, ColFloat64})
	own.appendInt64(0, 1)
	own.appendInt64(1, 2)
	own.appendFloat64(2, 3)
	own.finishRow()
	res, err := f.eng.Finalize(q, []*PartialResult{{Batch: own}, {}})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("Finalize = %v, %v; want one row", res, err)
	}
}

// BenchmarkFinalizeOrderBy finalizes `SELECT Tid, TS, Value FROM
// DataPoint ORDER BY Tid, TS` over two partials of 60 000 rows each,
// laid out like the scatter benchmark's largest panel query: each
// partial holds every other series, scanned group by group, segment by
// segment and, within a segment, series by series, so the rows come as
// TS-ascending runs of 97 interleaved by Tid. workers is the engine's
// parallelism, which sets the span count.
func BenchmarkFinalizeOrderBy(b *testing.B) {
	const series, ticks, run, group = 40, 1500, 97, 4
	fx := newFixture(b)
	q, err := sqlparse.Parse("SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS")
	if err != nil {
		b.Fatal(err)
	}
	var partials []*PartialResult
	for w := range 2 {
		batch := NewColumnBatch([]ColType{ColInt64, ColInt64, ColFloat64})
		for g := 0; g < series; g += group {
			for t0 := 0; t0 < ticks; t0 += run {
				for s := g; s < g+group; s++ {
					tid := int64(2*s + w + 1)
					for t := t0; t < min(t0+run, ticks); t++ {
						batch.appendInt64(0, tid)
						batch.appendInt64(1, int64(t)*100)
						batch.appendFloat64(2, float64(t%50)+0.5)
						batch.finishRow()
					}
				}
			}
		}
		partials = append(partials, &PartialResult{Batch: batch})
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := NewEngine(fx.store, fx.meta, models.NewBuiltinRegistry(), fx.schema)
			eng.SetParallelism(workers)
			p, err := eng.compile(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := eng.finalizePlan(p, partials); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
