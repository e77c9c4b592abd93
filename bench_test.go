// Micro-benchmarks for the quantities the paper's evaluation plots:
// ingestion rate with and without group compression (Fig. 13) and
// Segment View vs Data Point View query latency (Figs. 19, 21, 22).
// The storage side of the evaluation (Figs. 14-18 and the §5.2 and
// §4.2 ablations) is byte-exact and lives in TestFootprintMatrix; the
// benchmark of record is benchmark/. Run with: go test -bench=. -benchmem
package modelardb_test

import (
	"context"
	"testing"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/tsgen"
)

// epDataset builds a small EP workload for the micro-benchmarks.
func epDataset() *tsgen.Dataset {
	return tsgen.EP(tsgen.EPConfig{Entities: 8, Ticks: 1000, Seed: 42})
}

func epConfig(d *tsgen.Dataset, v1 bool) modelardb.Config {
	cfg := modelardb.Config{
		ErrorBound: modelardb.RelBound(5),
		Dimensions: d.Dimensions,
		Correlations: []string{
			"Production 0, Measure 1 Production",
			"Production 0, Measure 1 Temperature",
		},
	}
	if v1 {
		cfg.Correlations = nil
		cfg.DisableSplitting = true
	}
	for _, s := range d.Series {
		cfg.Series = append(cfg.Series, modelardb.SeriesConfig{
			SI: s.SI, Source: s.Source, Members: s.Members,
		})
	}
	return cfg
}

// benchmarkIngestMDB reports data points per second for ModelarDB
// (Fig. 13's quantity).
func benchmarkIngestMDB(b *testing.B, v1 bool) {
	b.Helper()
	d := epDataset()
	var points []core.DataPoint
	d.Points(func(p core.DataPoint) error { points = append(points, p); return nil })
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		db, err := modelardb.Open(epConfig(d, v1))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if err := db.Append(p.Tid, p.TS, p.Value); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		total += len(points)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "datapoints/s")
}

func BenchmarkIngestModelarDBv2(b *testing.B) { benchmarkIngestMDB(b, false) }
func BenchmarkIngestModelarDBv1(b *testing.B) { benchmarkIngestMDB(b, true) }

// loadedDB returns a database filled with the EP workload.
func loadedDB(b *testing.B, v1 bool) *modelardb.DB {
	b.Helper()
	d := epDataset()
	db, err := modelardb.Open(epConfig(d, v1))
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

// benchmarkQuery measures one SQL statement.
func benchmarkQuery(b *testing.B, sql string) {
	b.Helper()
	db := loadedDB(b, false)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
}

// The Segment View vs Data Point View gap (Figs. 19, 21, 22).
func BenchmarkQuerySumSegmentView(b *testing.B) {
	benchmarkQuery(b, "SELECT SUM_S(*), COUNT_S(*) FROM Segment")
}

// Without a Value predicate the Data Point View folds on models too;
// /filtered is the per-point reconstruction the figures compare with.
func BenchmarkQuerySumDataPointView(b *testing.B) {
	b.Run("folded", func(b *testing.B) {
		benchmarkQuery(b, "SELECT SUM(Value), COUNT(*) FROM DataPoint")
	})
	b.Run("filtered", func(b *testing.B) {
		benchmarkQuery(b, "SELECT SUM(Value), COUNT(*) FROM DataPoint WHERE "+keepsAllPoints)
	})
}

func BenchmarkQueryGroupByDimension(b *testing.B) {
	benchmarkQuery(b, "SELECT Category, SUM_S(*) FROM Segment GROUP BY Category")
}

func BenchmarkQueryMonthRollup(b *testing.B) {
	benchmarkQuery(b, "SELECT Category, CUBE_SUM_DAY(*) FROM Segment GROUP BY Category")
}

func BenchmarkQueryPointLookup(b *testing.B) {
	benchmarkQuery(b, "SELECT Value FROM DataPoint WHERE Tid = 3 AND TS = 600000")
}
