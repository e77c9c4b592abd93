// Benchmark for the distributed scatter path over real TCP: a master
// fanning one query out to >= 2 worker processes' RPC servers and
// merging their streamed partial-result chunks. This is the streaming
// tentpole's end-to-end cost — chunked frames, incremental merge,
// bounded master memory — measured per query so regressions in the
// transport or the merge path gate in CI alongside the local
// executors. Run with: go test -bench=ScatterTCP -benchmem
package modelardb_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"modelardb"
	"modelardb/internal/cluster"
)

// scatterBenchCluster starts nworkers TCP RPC servers, each backed by
// its own DB, ingests ticks rows per series into the fleet via the
// client (round-robin placement) and returns the connected client.
func scatterBenchCluster(b *testing.B, nworkers, ticks int) *cluster.Client {
	b.Helper()
	cfg := shardedConfig()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	var addrs []string
	for i := 0; i < nworkers; i++ {
		cfg := cfg
		cfg.Path = b.TempDir()
		db, err := modelardb.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := cluster.NewServer(db)
		go srv.Serve(ctx, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	client, err := cluster.Dial(cfg, addrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	for g := 0; g < benchGroups; g++ {
		tid := modelardb.Tid(g + 1)
		for i := 0; i < ticks; i++ {
			if err := client.Append(context.Background(), tid, int64(i)*100, float32(i%50)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := client.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkScatterTCPStream measures one scattered query per
// iteration against two TCP workers: an aggregate whose per-worker
// partials are small, and a full row select whose partials exceed the
// default chunk bound and therefore stream in many frames.
func BenchmarkScatterTCPStream(b *testing.B) {
	const ticks = 2000
	for _, bench := range []struct{ name, sql string }{
		{"agg", "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid"},
		{"rows", "SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS"},
	} {
		b.Run(bench.name, func(b *testing.B) {
			client := scatterBenchCluster(b, 2, ticks)
			// One warm-up query outside the timer validates the result
			// shape so a wrong fleet setup fails loudly, not slowly.
			res, err := client.Query(context.Background(), bench.sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("warm-up query returned no rows")
			}
			if bench.name == "rows" && len(res.Rows) != ticks*benchGroups {
				b.Fatal(fmt.Errorf("warm-up rows = %d, want %d", len(res.Rows), ticks*benchGroups))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(context.Background(), bench.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterAppendTCP measures ingestion through the master to
// two TCP workers: one op is 4096 Client.Append calls, sealed into
// 1024-point batches as they fill, plus the AppendBatch(nil) that
// drains the rest, so its B/op and allocs/op are what the master, the
// wire and both workers spend on 4096 points.
func BenchmarkClusterAppendTCP(b *testing.B) {
	const points = 4096
	client := scatterBenchCluster(b, 2, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < points; j++ {
			k := i*points + j
			if err := client.Append(ctx, modelardb.Tid(k%benchGroups+1), int64(k/benchGroups)*100, float32(k%50)); err != nil {
				b.Fatal(err)
			}
		}
		if err := client.AppendBatch(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}
