package query

import (
	"context"
	"reflect"
	"testing"

	"modelardb/internal/models"
	"modelardb/internal/sqlparse"
)

// FuzzCompileWhere: WHERE text arrives from network clients. For any
// clause the parser accepts, on either view, compiling either fails or
// the query runs without error and returns the same rows at
// parallelism 1 and 4 — evaluation has no error path, so every error a
// row could meet must surface at compile, where a cluster master's
// Validate sees it. That includes an ORDER BY the clause smuggles in:
// its columns resolve at compile too. Each input runs as a row scan and
// as a grouped aggregate. Seeded from TestClassifyWhere's tables.
func FuzzCompileWhere(f *testing.F) {
	for _, c := range classifyConjuncts {
		f.Add(c.view == "Segment", c.where)
	}
	for _, c := range classifyClauses {
		f.Add(c.view == "Segment", c.where)
	}
	fx := newFixture(f)
	engines := [2]*Engine{}
	for i, par := range []int{1, 4} {
		engines[i] = NewEngine(fx.store, fx.meta, models.NewBuiltinRegistry(), fx.schema)
		engines[i].SetParallelism(par)
		engines[i].chunk = 2
	}
	f.Fuzz(func(t *testing.T, segment bool, where string) {
		view, agg := "DataPoint", "Tid, COUNT(*), MIN(Value), SUM(Value)"
		if segment {
			view, agg = "Segment", "Tid, COUNT_S(*), MIN_S(*), SUM_S(*)"
		}
		for _, sql := range []string{
			"SELECT * FROM " + view + " WHERE " + where,
			"SELECT " + agg + " FROM " + view + " WHERE " + where + " GROUP BY Tid",
		} {
			q, err := sqlparse.Parse(sql)
			if err != nil {
				return
			}
			if _, err := engines[0].compile(q); err != nil {
				continue
			}
			var res [2]*Result
			for i, eng := range engines {
				if res[i], err = eng.ExecuteQuery(context.Background(), q); err != nil {
					t.Fatalf("%s: compiled, then failed at parallelism %d: %v", sql, eng.par, err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%s: parallelism 1 and 4 disagree", sql)
			}
		}
	})
}
