// Cluster: distributed ingestion and query processing (§3.1). The
// master partitions series into groups, assigns each group to the
// least-loaded worker, routes ingestion so a group's series are always
// co-located, and answers queries by merging the workers' partial
// aggregate states — no data is shuffled, the property behind the
// paper's linear scale-out (Fig. 20).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"modelardb"
	"modelardb/internal/cluster"
	"modelardb/internal/core"
	"modelardb/internal/tsgen"
)

func main() {
	// The context bounds the cluster's lifetime: cancelling it aborts
	// every in-flight scatter query on all workers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataset := tsgen.EP(tsgen.EPConfig{Entities: 12, Ticks: 720, Seed: 3})
	cfg := modelardb.Config{
		ErrorBound: modelardb.RelBound(5),
		Dimensions: dataset.Dimensions,
		Correlations: []string{
			"Production 0, Measure 1 Production",
			"Production 0, Measure 1 Temperature",
		},
	}
	for _, s := range dataset.Series {
		cfg.Series = append(cfg.Series, modelardb.SeriesConfig{
			SI: s.SI, Source: s.Source, Members: s.Members,
		})
	}

	c, err := cluster.NewLocal(ctx, cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("cluster with %d workers\n", c.NumWorkers())

	// Ingestion is routed by group: a group's series always land on the
	// same worker. Points travel in batches through AppendBatch, which
	// takes each destination group's shard lock once per batch.
	start := time.Now()
	var points int64
	batch := make([]modelardb.DataPoint, 0, 1024)
	err = dataset.Points(func(p core.DataPoint) error {
		points++
		batch = append(batch, p)
		if len(batch) == cap(batch) {
			if err := c.AppendBatch(ctx, batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		return nil
	})
	if err == nil {
		err = c.AppendBatch(ctx, batch)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d points in %s\n", points, time.Since(start).Round(time.Millisecond))

	for tid := modelardb.Tid(1); tid <= 8; tid += 4 {
		w, _ := c.WorkerOf(tid)
		fmt.Printf("series %d is owned by worker %d\n", tid, w)
	}

	res, times, err := c.QueryWithStats(ctx,
		"SELECT Category, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Category ORDER BY Category")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscatter/gather aggregate: %v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %v\n", row)
	}
	fmt.Println("per-worker partial execution times:")
	for i, d := range times {
		fmt.Printf("  worker %d: %s\n", i, d.Round(time.Microsecond))
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster totals: %d segments, %d bytes, %d points\n",
		stats.Segments, stats.StorageBytes, stats.DataPoints)
}
