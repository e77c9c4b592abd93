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
// configuration against the single-node materializing answer.
func TestColumnarEquivalenceMatrix(t *testing.T) {
	const nseries, ticks = 8, 200
	queries := []string{
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS",
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS LIMIT 57",
		"SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid",
		"SELECT COUNT(*), SUM(Value) FROM DataPoint",
		"SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT Park, AVG_S(*) FROM Segment GROUP BY Park ORDER BY Park",
	}
	for _, par := range []int{1, 4} {
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
