// Benchmarks for the group-sharded ingestion path: serialized
// point-by-point Append versus AppendBatch, single-writer and with one
// writer per group. On a multi-core machine the sharded variant scales
// with the writer count because disjoint groups take disjoint locks;
// even single-core it wins by amortizing one lock acquisition over a
// whole batch. Run with: go test -bench=Ingest -benchmem
package modelardb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"modelardb"
	"modelardb/internal/tsgen"
)

const benchGroups = 8

// shardedConfig builds benchGroups single-series groups so concurrent
// writers never share a shard lock.
func shardedConfig() modelardb.Config {
	cfg := modelardb.Config{
		ErrorBound: modelardb.RelBound(0),
		Dimensions: []modelardb.Dimension{{Name: "Location", Levels: []string{"Park"}}},
	}
	for i := 0; i < benchGroups; i++ {
		cfg.Series = append(cfg.Series, modelardb.SeriesConfig{
			SI: 100, Members: map[string][]string{"Location": {fmt.Sprintf("P%d", i)}},
		})
	}
	return cfg
}

// BenchmarkIngestAppendSerial is the baseline: one goroutine, one
// Append call (and one lock round trip) per point.
func BenchmarkIngestAppendSerial(b *testing.B) {
	db, err := modelardb.Open(shardedConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := modelardb.Tid(i%benchGroups + 1)
		if err := db.Append(tid, int64(i/benchGroups)*100, float32(i%50)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestAppendBatch is AppendBatch from a single writer: the
// same point stream, one shard-lock acquisition per group per batch.
func BenchmarkIngestAppendBatch(b *testing.B) {
	db, err := modelardb.Open(shardedConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	batch := make([]modelardb.DataPoint, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := modelardb.Tid(i%benchGroups + 1)
		batch = append(batch, modelardb.DataPoint{Tid: tid, TS: int64(i/benchGroups) * 100, Value: float32(i % 50)})
		if len(batch) == cap(batch) {
			if err := db.AppendBatch(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := db.AppendBatch(context.Background(), batch); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIngestAppendBatchSharded is the headline configuration: one
// writer per group, all ingesting concurrently through AppendBatch on
// disjoint shard locks.
func BenchmarkIngestAppendBatchSharded(b *testing.B) {
	db, err := modelardb.Open(shardedConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	per := b.N/benchGroups + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, benchGroups)
	for w := 0; w < benchGroups; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := modelardb.Tid(w + 1)
			batch := make([]modelardb.DataPoint, 0, 4096)
			for i := 0; i < per; i++ {
				batch = append(batch, modelardb.DataPoint{Tid: tid, TS: int64(i) * 100, Value: float32(i % 50)})
				if len(batch) == cap(batch) {
					if err := db.AppendBatch(context.Background(), batch); err != nil {
						errs[w] = err
						return
					}
					batch = batch[:0]
				}
			}
			errs[w] = db.AppendBatch(context.Background(), batch)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestAppendSharedLockContended is the contention shape the
// per-group sharding removes: one writer per group hammering Append
// point by point. Before the shard split these writers serialized on
// one database mutex; now they only pay their own group's lock.
func BenchmarkIngestAppendSharded(b *testing.B) {
	db, err := modelardb.Open(shardedConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	per := b.N/benchGroups + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, benchGroups)
	for w := 0; w < benchGroups; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := modelardb.Tid(w + 1)
			for i := 0; i < per; i++ {
				if err := db.Append(tid, int64(i)*100, float32(i%50)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestGroupedEP is one whole in-memory load of a small EP
// data set at 1 %, grouped by the EP correlation clauses: Open, the
// points in 4 096-point AppendBatch calls, Flush. The groups are
// correlated, so segments span many ticks and most of the work is
// model fitting. The gate reads its allocs/op: a load costs its
// segments and the database's fixed setup, and a per-tick allocation
// in the segment generator would add one per group and tick.
func BenchmarkIngestGroupedEP(b *testing.B) {
	d := tsgen.EP(tsgen.EPConfig{Entities: 4, Ticks: 2000, Seed: 42, GapRate: 0.0005})
	cfg := modelardb.DefaultConfig()
	cfg.ErrorBound = modelardb.RelBound(1)
	cfg.Dimensions = d.Dimensions
	cfg.Correlations = []string{"Production 0, Measure 1 Production", "Production 0, Measure 1 Temperature"}
	for _, s := range d.Series {
		cfg.Series = append(cfg.Series, modelardb.SeriesConfig{SI: s.SI, Source: s.Source, Members: s.Members})
	}
	points := make([]modelardb.DataPoint, 0, d.TotalPoints())
	d.Points(func(p modelardb.DataPoint) error {
		points = append(points, p)
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := modelardb.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for batch := points; len(batch) > 0; {
			n := min(len(batch), 4096)
			if err := db.AppendBatch(context.Background(), batch[:n]); err != nil {
				b.Fatal(err)
			}
			batch = batch[n:]
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
