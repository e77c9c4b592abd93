// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure (BenchmarkSec52, BenchmarkFig13 ... BenchmarkFig28
// run the corresponding harness experiment end to end), plus focused
// micro-benchmarks for the quantities the figures plot (ingestion
// rate, storage per point, Segment View vs Data Point View latency)
// and ablation benchmarks for the design decisions DESIGN.md calls
// out. Run with: go test -bench=. -benchmem
package modelardb_test

import (
	"context"
	"fmt"
	"testing"

	"modelardb"
	"modelardb/internal/baselines"
	"modelardb/internal/core"
	"modelardb/internal/harness"
	"modelardb/internal/models"
	"modelardb/internal/tsgen"
)

// benchmarkExperiment runs one harness experiment per iteration.
func benchmarkExperiment(b *testing.B, run func(harness.Scale) (*harness.Table, error)) {
	b.Helper()
	scale := harness.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure.
func BenchmarkSec52(b *testing.B) { benchmarkExperiment(b, harness.Sec52) }
func BenchmarkFig13(b *testing.B) { benchmarkExperiment(b, harness.Fig13) }
func BenchmarkFig14(b *testing.B) { benchmarkExperiment(b, harness.Fig14) }
func BenchmarkFig15(b *testing.B) { benchmarkExperiment(b, harness.Fig15) }
func BenchmarkFig16(b *testing.B) { benchmarkExperiment(b, harness.Fig16) }
func BenchmarkFig17(b *testing.B) { benchmarkExperiment(b, harness.Fig17) }
func BenchmarkFig18(b *testing.B) { benchmarkExperiment(b, harness.Fig18) }
func BenchmarkFig19(b *testing.B) { benchmarkExperiment(b, harness.Fig19) }
func BenchmarkFig20(b *testing.B) { benchmarkExperiment(b, harness.Fig20) }
func BenchmarkFig21(b *testing.B) { benchmarkExperiment(b, harness.Fig21) }
func BenchmarkFig22(b *testing.B) { benchmarkExperiment(b, harness.Fig22) }
func BenchmarkFig23(b *testing.B) { benchmarkExperiment(b, harness.Fig23) }
func BenchmarkFig24(b *testing.B) { benchmarkExperiment(b, harness.Fig24) }
func BenchmarkFig25(b *testing.B) { benchmarkExperiment(b, harness.Fig25) }
func BenchmarkFig26(b *testing.B) { benchmarkExperiment(b, harness.Fig26) }
func BenchmarkFig27(b *testing.B) { benchmarkExperiment(b, harness.Fig27) }
func BenchmarkFig28(b *testing.B) { benchmarkExperiment(b, harness.Fig28) }

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

// benchmarkIngestBaseline reports data points per second for one
// comparator system.
func benchmarkIngestBaseline(b *testing.B, make func(meta *core.MetadataCache) baselines.System) {
	b.Helper()
	d := epDataset()
	var points []core.DataPoint
	d.Points(func(p core.DataPoint) error { points = append(points, p); return nil })
	meta := core.NewMetadataCache()
	for i, sp := range d.Series {
		meta.Add(&core.TimeSeries{Tid: core.Tid(i + 1), SI: sp.SI, Members: sp.Members})
		meta.SetGroup(core.Tid(i+1), core.Gid(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		s := make(meta)
		for _, p := range points {
			if err := s.Append(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		s.Close()
		total += len(points)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "datapoints/s")
}

func BenchmarkIngestRowStore(b *testing.B) {
	benchmarkIngestBaseline(b, func(m *core.MetadataCache) baselines.System { return baselines.NewRowStore(m, 1024) })
}

func BenchmarkIngestParquetLike(b *testing.B) {
	benchmarkIngestBaseline(b, func(m *core.MetadataCache) baselines.System {
		return baselines.NewColumnStore(m, baselines.VariantParquet, 4096)
	})
}

func BenchmarkIngestORCLike(b *testing.B) {
	benchmarkIngestBaseline(b, func(m *core.MetadataCache) baselines.System {
		return baselines.NewColumnStore(m, baselines.VariantORC, 4096)
	})
}

func BenchmarkIngestTSDB(b *testing.B) {
	benchmarkIngestBaseline(b, func(m *core.MetadataCache) baselines.System { return baselines.NewTSDB(m, 1024) })
}

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

// BenchmarkAblationSingleVsMultiModel quantifies §5.2 vs §5.1: group
// compression with one model per segment versus the
// multiple-models-per-segment fallback, on correlated series. The
// paper's argument for §5.2 is exactly this bytes-per-point gap.
func BenchmarkAblationSingleVsMultiModel(b *testing.B) {
	run := func(b *testing.B, registry *models.Registry) float64 {
		b.Helper()
		d := tsgen.EP(tsgen.EPConfig{Entities: 4, Ticks: 2000, Seed: 42})
		bound := models.RelBound(5)
		var stored int64
		var points int64
		for i := 0; i < b.N; i++ {
			stored, points = 0, 0
			// Group the four measures of each entity per category as the
			// EP clauses would.
			for e := 0; e < 4; e++ {
				for pair := 0; pair < 2; pair++ {
					first := core.Tid(e*4 + pair*2 + 1)
					tids := []core.Tid{first, first + 1}
					cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
						Registry: registry,
						Bound:    bound,
						OnSegment: func(s *core.Segment) error {
							stored += int64(s.StoredSize(tids))
							return nil
						},
					}}
					gi := core.NewGroupIngestor(cfg, core.Gid(e*2+pair+1), d.SI, tids)
					err := d.Points(func(p core.DataPoint) error {
						if p.Tid != tids[0] && p.Tid != tids[1] {
							return nil
						}
						points++
						return gi.Append(p.Tid, p.TS, p.Value)
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := gi.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		return float64(stored) / float64(points)
	}
	b.Run("single-model-5.2", func(b *testing.B) {
		bpp := run(b, models.NewBuiltinRegistry())
		b.ReportMetric(bpp, "bytes/point")
	})
	b.Run("multi-model-5.1", func(b *testing.B) {
		reg := models.NewRegistry()
		reg.Register(models.NewMulti(models.PMCType{}, models.MidMultiBase))
		reg.Register(models.NewMulti(models.SwingType{}, models.MidMultiBase+1))
		reg.Register(models.NewMulti(models.GorillaType{}, models.MidMultiBase+2))
		bpp := run(b, reg)
		b.ReportMetric(bpp, "bytes/point")
	})
}

// BenchmarkAblationSplitting measures §4.2's dynamic splitting: bytes
// per point with and without splitting on a workload whose groups
// decorrelate halfway through.
func BenchmarkAblationSplitting(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.Helper()
		var bpp float64
		for i := 0; i < b.N; i++ {
			cfg := modelardb.Config{
				ErrorBound: modelardb.AbsBound(0.5),
				Dimensions: []modelardb.Dimension{{Name: "Location", Levels: []string{"Park"}}},
				Correlations: []string{
					"Location 1",
				},
				DisableSplitting: disable,
				SplitFraction:    3,
				Series: []modelardb.SeriesConfig{
					{SI: 1000, Members: map[string][]string{"Location": {"P"}}},
					{SI: 1000, Members: map[string][]string{"Location": {"P"}}},
				},
			}
			db, err := modelardb.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for tick := 0; tick < 4000; tick++ {
				ts := int64(tick) * 1000
				v1 := float32(100)
				v2 := float32(100.2)
				if tick >= 2000 { // the series decorrelate
					v2 = float32(500 + 50*((tick*tick)%97))
				}
				if err := db.Append(1, ts, v1); err != nil {
					b.Fatal(err)
				}
				if err := db.Append(2, ts, v2); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			st, err := db.Stats()
			if err != nil {
				b.Fatal(err)
			}
			bpp = float64(st.StorageBytes) / float64(st.DataPoints)
			db.Close()
		}
		b.ReportMetric(bpp, "bytes/point")
	}
	b.Run("splitting-on", func(b *testing.B) { run(b, false) })
	b.Run("splitting-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkErrorBoundSweep reports bytes per point at each of the
// paper's error bounds (the x-axis of Figs. 14-15).
func BenchmarkErrorBoundSweep(b *testing.B) {
	d := tsgen.EP(tsgen.EPConfig{Entities: 4, Ticks: 1500, Seed: 42})
	for _, bound := range harness.Bounds {
		b.Run(fmt.Sprintf("bound-%g%%", bound), func(b *testing.B) {
			var bpp float64
			for i := 0; i < b.N; i++ {
				cfg := epConfig(d, false)
				cfg.ErrorBound = modelardb.RelBound(bound)
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
				st, _ := db.Stats()
				bpp = float64(st.StorageBytes) / float64(st.DataPoints)
				db.Close()
			}
			b.ReportMetric(bpp, "bytes/point")
		})
	}
}
