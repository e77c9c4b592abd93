// Benchmarks for the parallel segment-scan query executor: the same
// aggregate workload at increasing worker counts (the speedup curve),
// plus the effect of segment pruning on time-windowed queries. See
// BENCHMARKS.md for recorded comparisons; run locally with
//
//	go test -bench 'Parallel|Pruning' -benchtime 3x
package modelardb_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/tsgen"
)

// parallelDataset is a larger EP workload so each query does enough
// per-segment work for the worker pool to matter: 64 series, 2500
// ticks, 160k points.
func parallelDataset() *tsgen.Dataset {
	return tsgen.EP(tsgen.EPConfig{Entities: 16, Ticks: 2500, Seed: 42})
}

// openParallelDB loads the dataset into a database with the given
// worker count.
func openParallelDB(b *testing.B, workers int) *modelardb.DB {
	b.Helper()
	d := parallelDataset()
	cfg := epConfig(d, false)
	cfg.QueryParallelism = workers
	db, err := modelardb.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Points(func(p core.DataPoint) error { return db.Append(p.Tid, p.TS, p.Value) }); err != nil {
		b.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db
}

// benchmarkWorkers runs one SQL statement at 1, 2, 4 and 8 workers.
// The workers=1 sub-benchmark is a pool of one, run in the calling
// goroutine; speedup at w workers is time(workers=1) / time(workers=w).
// On a single-core machine (GOMAXPROCS=1) the curve is flat by
// construction.
func benchmarkWorkers(b *testing.B, sql string) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := openParallelDB(b, workers)
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(context.Background(), sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// keepsAllPoints is a Value predicate every EP point passes. A point
// conjunct takes a DataPoint-view aggregate off the model fold, so
// the /filtered sub-benchmarks keep measuring what the unfiltered
// ones measured before aggregates folded on models: every stored
// value reconstructed, tested and added.
const keepsAllPoints = "Value > -1000000000"

// Without a Value predicate the Data Point View sum folds each
// (segment, series) on its model, like the Segment View; /filtered
// reconstructs every stored value — the heaviest aggregate scan and
// the headline parallel workload.
func BenchmarkParallelSumDataPointView(b *testing.B) {
	benchmarkWorkers(b, "SELECT SUM(Value), COUNT(*) FROM DataPoint")
	b.Run("filtered", func(b *testing.B) {
		benchmarkWorkers(b, "SELECT SUM(Value), COUNT(*) FROM DataPoint WHERE "+keepsAllPoints)
	})
}

// The Segment View fast path is lighter per segment; it measures the
// executor's overhead floor.
func BenchmarkParallelSumSegmentView(b *testing.B) {
	benchmarkWorkers(b, "SELECT SUM_S(*), COUNT_S(*) FROM Segment")
}

// A grouped roll-up: per-chunk GroupState maps plus the scan-order
// merge.
func BenchmarkParallelGroupByDimension(b *testing.B) {
	benchmarkWorkers(b, "SELECT Category, SUM_S(*), AVG_S(*) FROM Segment GROUP BY Category")
}

// An hourly roll-up per series, the shape of the agg_segment panel's
// heaviest query: one group per series and ~42 hour buckets each, so it
// measures the roll-up fold (the segment's bucket split, the cube state
// adds) and finalize's one row per (series, bucket).
func BenchmarkParallelCubeHourByTid(b *testing.B) {
	benchmarkWorkers(b, "SELECT Entity, Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Entity, Tid")
}

// BenchmarkPruningTimeWindow measures segment pruning: a query over a
// 5% time window against the full-history scan. The per-group
// time-range index and EndTime push-down let the store skip segments
// (and for the file store, never deserialize them) regardless of
// worker count. /filtered is the same pair with every point
// reconstructed.
func BenchmarkPruningTimeWindow(b *testing.B) {
	db := openParallelDB(b, 0)
	defer db.Close()
	d := parallelDataset()
	span := int64(2500) * d.SI
	window := fmt.Sprintf("TS >= %d", span*95/100)
	pair := func(b *testing.B, full, windowed string) {
		for _, tc := range []struct {
			name string
			sql  string
		}{
			{"full-history", "SELECT SUM(Value) FROM DataPoint" + full},
			{"window-5pct", "SELECT SUM(Value) FROM DataPoint" + windowed},
		} {
			b.Run(tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(context.Background(), tc.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	pair(b, "", " WHERE "+window)
	b.Run("filtered", func(b *testing.B) {
		pair(b, " WHERE "+keepsAllPoints, " WHERE "+window+" AND "+keepsAllPoints)
	})
}
