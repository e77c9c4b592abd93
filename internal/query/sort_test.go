package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"modelardb/internal/sqlparse"
)

// refSortRows is the reflection-based stable sort sortRows replaced,
// kept as the oracle for its order: ORDER BY keys compared left to
// right by compareAny, ties keeping their input order.
func refSortRows(rows [][]any, idx []int, orderBy []sqlparse.OrderItem) {
	sort.SliceStable(rows, func(a, b int) bool {
		for i, o := range orderBy {
			cmp := compareAny(rows[a][idx[i]], rows[b][idx[i]])
			if cmp == 0 {
				continue
			}
			if o.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// TestSortRowsMatchesStableReference sorts random results with many
// duplicate keys, mixed ASC/DESC keys and int64, float64, string and
// nil cells, and requires the reference's order row for row. The last
// column numbers the input rows, so a tie broken differently shows.
func TestSortRowsMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cell := func(kind int) any {
		switch kind {
		case 0:
			return int64(rng.Intn(5))
		case 1:
			return float64(rng.Intn(4)) / 2
		case 2:
			return []string{"", "a", "b", "ab"}[rng.Intn(4)]
		default:
			return nil
		}
	}
	for trial := 0; trial < 300; trial++ {
		ncols := 1 + rng.Intn(4)
		columns := make([]string, ncols+1)
		kinds := make([]int, ncols)
		for c := range kinds {
			columns[c] = fmt.Sprintf("c%d", c)
			kinds[c] = rng.Intn(4)
		}
		columns[ncols] = "seq"
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
		orderBy := make([]sqlparse.OrderItem, 1+rng.Intn(ncols))
		idx := make([]int, len(orderBy))
		for i := range orderBy {
			idx[i] = rng.Intn(ncols)
			orderBy[i] = sqlparse.OrderItem{Column: columns[idx[i]], Desc: rng.Intn(2) == 0}
		}
		want := make([][]any, len(rows))
		copy(want, rows)
		refSortRows(want, idx, orderBy)
		res := &Result{Columns: columns, Rows: rows}
		if err := sortRows(res, orderBy); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("trial %d: ORDER BY %+v:\n got %v\nwant %v", trial, orderBy, res.Rows, want)
		}
	}
}
