package cluster

// The columnar-pipeline equivalence matrix: the typed-vector batch
// representation must be invisible to every query surface. One data
// set, queried as plain rows, aggregates, ORDER BY and LIMIT, under
// sequential and parallel executors, through the materializing Query
// and the streaming cursor, on a single node and on a master over
// in-process and over TCP workers — all must return identical boxed
// rows.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"modelardb"
)

// TestColumnarEquivalenceMatrix compares every deployment and executor
// configuration against the single-node materializing answer, and the
// answers at every parallelism against those at parallelism 1. The
// 12 800-point data set is large enough that a row query's finalize
// splits its sort and boxing over spans (minSpanRows), two at
// parallelism 2 and three at 4 and 8, on the single node and on the
// masters alike.
func TestColumnarEquivalenceMatrix(t *testing.T) {
	const nseries, ticks = 8, 1600
	queries := []string{
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS",
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS LIMIT 57",
		// Ties on (Park, TS) between a park's two series keep scan
		// order, which the split sort must not change.
		"SELECT Park, TS, Tid, Value FROM DataPoint ORDER BY Park DESC, TS",
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY TS DESC, Value LIMIT 5000",
		"SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid",
		"SELECT COUNT(*), SUM(Value) FROM DataPoint",
		"SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT Park, AVG_S(*) FROM Segment GROUP BY Park ORDER BY Park",
	}
	// answers holds parallelism 1's answers, which every other
	// parallelism must reproduce exactly.
	answers := map[string][][]any{}
	for _, par := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			cfg := fleetConfig()
			cfg.QueryParallelism = par
			cfg.StreamChunkBytes = 512 // force multi-chunk scatters

			single, err := modelardb.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			fillCluster(t, single.Append, nseries, ticks)
			if err := single.Flush(); err != nil {
				t.Fatal(err)
			}

			masters := newMasters(t, cfg, ticks)

			for _, sql := range queries {
				want, err := single.Query(context.Background(), sql)
				if err != nil {
					t.Fatalf("%q single: %v", sql, err)
				}
				if first, ok := answers[sql]; !ok {
					answers[sql] = want.Rows
				} else if !reflect.DeepEqual(want.Rows, first) {
					t.Fatalf("%q: rows at parallelism %d differ from parallelism 1", sql, par)
				}
				// The streaming cursor on the same node must yield the
				// materialized rows in the materialized order.
				rows, err := single.QueryRows(context.Background(), sql)
				if err != nil {
					t.Fatalf("%q cursor: %v", sql, err)
				}
				var cur [][]any
				for rows.Next() {
					cur = append(cur, append([]any(nil), rows.Row()...))
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%q cursor: %v", sql, err)
				}
				rows.Close()
				if len(cur) != len(want.Rows) || (len(cur) > 0 && !reflect.DeepEqual(cur, want.Rows)) {
					t.Fatalf("%q: cursor rows %v != materialized rows %v", sql, cur, want.Rows)
				}

				for i, kind := range masterKinds {
					got, err := masters[i].Query(context.Background(), sql)
					if err != nil {
						t.Fatalf("%q %s: %v", sql, kind, err)
					}
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("%q: %s cluster rows %v != single node rows %v", sql, kind, got.Rows, want.Rows)
					}
				}
			}

			// A streaming LIMIT without ORDER BY is only deterministic
			// within one node (scan order); compare cursor vs
			// materialized there.
			const limitSQL = "SELECT Tid, TS, Value FROM DataPoint LIMIT 43"
			want, err := single.Query(context.Background(), limitSQL)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := single.QueryRows(context.Background(), limitSQL)
			if err != nil {
				t.Fatal(err)
			}
			var cur [][]any
			for rows.Next() {
				cur = append(cur, append([]any(nil), rows.Row()...))
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			rows.Close()
			if !reflect.DeepEqual(cur, want.Rows) {
				t.Fatalf("%q: cursor rows != materialized rows", limitSQL)
			}
		})
	}
}
