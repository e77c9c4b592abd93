package cluster

import (
	"context"
	"strings"
	"testing"

	"modelardb"
)

// TestClusterSnapshotAggregation: the transport client's Snapshot
// merges worker registries key-wise, de-duplicates the replicated
// catalog gauges, and carries the worker-side RPC instruments — so
// cluster Stats and any new worker metric flow through one path.
func TestClusterSnapshotAggregation(t *testing.T) {
	const nWorkers = 2
	const ticks = 100
	cfg := fleetConfig()
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		_, _, addr := startWorker(t, cfg)
		addrs = append(addrs, addr)
	}
	client, err := Dial(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 64
	fillCluster(t, clientAppend(client), 8, ticks)
	if err := client.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(context.Background(), "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid"); err != nil {
		t.Fatal(err)
	}

	snap, err := client.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Catalog gauges de-duplicate: every worker replicates all 8 series.
	if got := snap[modelardb.MetricSeries]; got != 8 {
		t.Fatalf("merged series = %g, want 8 (not %d× the replica count)", got, nWorkers)
	}
	// Additive counters sum across workers.
	if got := snap[modelardb.MetricPoints]; got != 800 {
		t.Fatalf("merged ingested points = %g, want 800", got)
	}
	// The worker-side RPC instruments ride the same snapshot.
	if got := snap[`modelardb_rpc_server_seconds_count{method="Append"}`]; got == 0 {
		t.Fatal("merged snapshot missing worker Append call counts")
	}
	if got := snap["modelardb_rpc_stream_chunks_total"]; got == 0 {
		t.Fatal("merged snapshot shows no streamed chunks after a scatter query")
	}

	// Stats is a typed view over the same merge.
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataPoints != 800 || stats.Series != 8 || stats.Segments == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// The master's own registry records per-method client latency.
	var sb strings.Builder
	if err := client.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`modelardb_rpc_client_seconds_count{method="Append"}`,
		`modelardb_rpc_client_seconds_count{method="ExecutePartialStream"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("master exposition missing %q", want)
		}
	}
}

// TestLocalClusterSnapshot: a master over in-process workers follows
// the same aggregation contract as one over TCP workers.
func TestLocalClusterSnapshot(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 50)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap[modelardb.MetricSeries]; got != 8 {
		t.Fatalf("merged series = %g, want 8", got)
	}
	if got := snap[modelardb.MetricPoints]; got != 400 {
		t.Fatalf("merged ingested points = %g, want 400", got)
	}
	if got := snap[modelardb.MetricQueuedBatches]; got != 0 {
		t.Fatalf("queued batches = %g, want 0 after a clean flush", got)
	}
}
