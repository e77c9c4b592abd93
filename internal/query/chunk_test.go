package query

import (
	"context"
	"math"
	"reflect"
	"testing"

	"modelardb/internal/sqlparse"
)

// TestChunkCutsMatchRowByRow: runSelectChunks copies a run of rows at a
// time, and still cuts every chunk at the row where appending row by
// row and checking ByteSize after each row cuts it — for a numeric
// layout and one with string columns of several lengths, at bounds
// below one row, inside a row and far above one.
func TestChunkCutsMatchRowByRow(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT Tid, TS, Value FROM DataPoint",
		"SELECT Tid, Park, TS, Value, Concrete FROM DataPoint",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Every row in scan order, from one unbounded chunk.
		var rows [][]any
		var sizes []int
		err = f.eng.ExecutePartialChunks(ctx, q, math.MaxInt, func(part *PartialResult) error {
			b := part.Batch
			for r := range b.Len() {
				row, size := make([]any, b.NumCols()), 0
				for c, typ := range b.Types() {
					row[c] = b.ValueAt(r, c)
					if typ == ColString {
						size += 16 + len(b.StringAt(r, c))
					} else {
						size += 8
					}
				}
				rows, sizes = append(rows, row), append(sizes, size)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("%q: no rows", sql)
		}
		for _, maxBytes := range []int{1, 20, 24, 100, 1000, 4099, 65536} {
			// The row-by-row cuts: a chunk ends with the row that brings
			// its size to maxBytes, and the rest is the last chunk.
			var want []int
			size, n := 0, 0
			for _, s := range sizes {
				size, n = size+s, n+1
				if size >= maxBytes {
					want, size, n = append(want, n), 0, 0
				}
			}
			if n > 0 {
				want = append(want, n)
			}
			var got []int
			var all [][]any
			err := f.eng.ExecutePartialChunks(ctx, q, maxBytes, func(part *PartialResult) error {
				b := part.Batch
				got = append(got, b.Len())
				for r := range b.Len() {
					row := make([]any, b.NumCols())
					for c := range row {
						row[c] = b.ValueAt(r, c)
					}
					all = append(all, row)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q at %d bytes: %d chunks, want %d (first lengths %v, want %v)",
					sql, maxBytes, len(got), len(want), got[:min(5, len(got))], want[:min(5, len(want))])
			}
			if !reflect.DeepEqual(all, rows) {
				t.Fatalf("%q at %d bytes: the chunks' rows differ from the unbounded chunk's", sql, maxBytes)
			}
		}
	}
}
