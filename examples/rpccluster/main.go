// RPC cluster: multi-process deployment over the framed transport. The
// workers of examples/cluster live in one process; here each worker
// serves its database over TCP (cluster.Server) and the master dials
// them (cluster.Dial), validates queries before any network traffic,
// scatters them fail-fast and can cancel an in-flight distributed scan
// — the Cancel frame aborts the worker-side ExecutePartialStream through
// its per-call context. For the demo both sides run in one process on
// loopback listeners; in a real deployment each worker is its own
// process on its own machine.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"modelardb"
	"modelardb/internal/cluster"
	"modelardb/internal/core"
	"modelardb/internal/tsgen"
)

func main() {
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
		// Every call the master issues fails over to an error when a
		// worker does not answer in time (and the worker-side scan is
		// cancelled), so one slow node bounds tail latency instead of
		// hanging the query.
		RPCTimeout: 5 * time.Second,
	}
	for _, s := range dataset.Series {
		cfg.Series = append(cfg.Series, modelardb.SeriesConfig{
			SI: s.SI, Source: s.Source, Members: s.Members,
		})
	}

	// Start two workers, each a full database served over TCP. Every
	// worker runs a write-ahead log, so an acknowledged Append survives
	// a worker crash: restart it from the same data and WAL directories
	// on the same address and the master's bounded reconnect-and-retry
	// carries re-queued batches and queries over to the replayed DB.
	const nWorkers = 2
	// Per-run directories: a crashed demo must not leak a stale journal
	// into the next run's workers.
	root, err := os.MkdirTemp("", "rpccluster-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		wcfg := cfg
		wcfg.Path = filepath.Join(root, fmt.Sprintf("w%d-data", i))
		wcfg.WALDir = filepath.Join(root, fmt.Sprintf("w%d-wal", i))
		wcfg.WALFsync = "interval"
		db, err := modelardb.Open(wcfg)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		go cluster.NewServer(db).Serve(ctx, ln)
		addrs = append(addrs, ln.Addr().String())
	}

	// The master holds the catalog and routes by group.
	c, err := cluster.DialContext(ctx, cfg, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("master connected to %d workers: %v\n", nWorkers, addrs)

	start := time.Now()
	var points int64
	err = dataset.Points(func(p core.DataPoint) error {
		points++
		return c.Append(ctx, p.Tid, p.TS, p.Value)
	})
	if err == nil {
		err = c.Flush(ctx)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d points over TCP in %s\n",
		points, time.Since(start).Round(time.Millisecond))

	// A validation error is caught on the master: no scatter happens.
	if _, err := c.Query(ctx, "SELECT Nope FROM Segment"); err != nil {
		fmt.Printf("validated on the master, no RPC issued: %v\n", err)
	}

	res, err := c.Query(ctx,
		"SELECT Category, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Category ORDER BY Category")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscatter/merge aggregate: %v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %v\n", row)
	}

	// Cancelling the master-side context aborts the distributed scan:
	// the call returns immediately and Cancel frames stop the workers.
	qctx, qcancel := context.WithCancel(ctx)
	qcancel()
	if _, err := c.Query(qctx, "SELECT SUM_S(*) FROM Segment"); errors.Is(err, context.Canceled) {
		fmt.Println("\ncancelled scatter returned context.Canceled; workers aborted")
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster totals: %d segments, %d bytes, %d points, %d WAL bytes\n",
		stats.Segments, stats.StorageBytes, stats.DataPoints, stats.WALBytes)
}
