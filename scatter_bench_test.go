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
// client (round-robin placement) and returns the connected client,
// whose scatters stream chunks of chunkBytes (0: the default).
func scatterBenchCluster(b *testing.B, nworkers, ticks int, chunkBytes int64) *cluster.Client {
	b.Helper()
	cfg := shardedConfig()
	cfg.StreamChunkBytes = chunkBytes
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
// partials are small, a full row select whose partials fit one chunk
// of the default bound, and the same select in 16 KiB chunks, so each
// worker streams about a dozen frames and the master reads them into
// reused buffers.
func BenchmarkScatterTCPStream(b *testing.B) {
	const ticks = 2000
	const rowsSQL = "SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS"
	for _, bench := range []struct {
		name, sql  string
		chunkBytes int64
	}{
		{"agg", "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid", 0},
		{"rows", rowsSQL, 0},
		{"rows_chunked", rowsSQL, 16 << 10},
	} {
		b.Run(bench.name, func(b *testing.B) {
			client := scatterBenchCluster(b, 2, ticks, bench.chunkBytes)
			// One warm-up query outside the timer validates the result
			// shape so a wrong fleet setup fails loudly, not slowly.
			res, err := client.Query(context.Background(), bench.sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("warm-up query returned no rows")
			}
			if bench.sql == rowsSQL && len(res.Rows) != ticks*benchGroups {
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
	client := scatterBenchCluster(b, 2, 0, 0)
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
