package cluster

// Tests for the streaming scatter path: chunked partial results over
// the framed transport, incremental merging on the master, bounded
// per-chunk memory, and mid-stream cancellation draining the workers.

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
)

// TestStreamingScatterChunked: a partial result larger than the
// configured chunk bound must arrive as multiple chunk frames, each
// merged incrementally, and the merged accumulator must finalize to
// exactly the single-node answer. This pins the tentpole contract: the
// master's peak per-worker memory is one chunk, never the whole reply.
func TestStreamingScatterChunked(t *testing.T) {
	const ticks = 400
	cfg := fleetConfig()
	db, _, addr := startWorker(t, cfg)
	fillCluster(t, db.Append, 8, ticks)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn)
	defer wc.Close()

	// 8 series x 400 ticks = 3200 rows, far above a 2 KiB chunk bound.
	const sql = "SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS"
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	acc := &query.PartialResult{}
	chunks := 0
	maxChunkRows := 0
	err = wc.Call(context.Background(), "ExecutePartialStream",
		&StreamQueryArgs{SQL: sql, ChunkBytes: 2048}, nil, func(body []byte) error {
			chunks++
			part := &query.PartialResult{}
			if err := query.DecodePartial(body, part); err != nil {
				return err
			}
			if part.NumRows() > maxChunkRows {
				maxChunkRows = part.NumRows()
			}
			query.MergePartial(acc, part)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("result above the chunk bound arrived in %d frame(s), want >= 2", chunks)
	}
	if maxChunkRows == acc.NumRows() {
		t.Fatalf("one chunk carried all %d rows; streaming did not bound chunk size", maxChunkRows)
	}
	got, err := db.Engine().Finalize(q, []*query.PartialResult{acc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != ticks*8 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("incrementally merged chunks finalize to %d rows, single node has %d",
			len(got.Rows), len(want.Rows))
	}
}

// TestStreamingEquivalenceAcrossDeployments: a master over TCP
// workers, one over in-process workers and a single node must return
// byte-identical rows
// for the same data, with the chunk bound forced low enough that every
// scatter streams many chunks per worker. The workload's values are
// small integers, so even the aggregates are exact in float64 and the
// comparison needs no tolerance.
func TestStreamingEquivalenceAcrossDeployments(t *testing.T) {
	const ticks = 300
	cfg := fleetConfig()
	cfg.StreamChunkBytes = 512

	single, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	fillCluster(t, single.Append, 8, ticks)
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}

	masters := newMasters(t, cfg, ticks)

	for _, sql := range []string{
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS",
		"SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT COUNT(*), SUM(Value) FROM DataPoint",
		"SELECT Park, AVG_S(*) FROM Segment GROUP BY Park ORDER BY Park",
	} {
		want, err := single.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q single: %v", sql, err)
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
}

// TestCancelMidStreamDrains: cancelling a scatter while a worker is
// mid-stream must return promptly, send a Cancel frame that aborts the
// worker's scan, and leave no in-flight call or stream behind — the
// PR 3 fail-fast contract extended to chunked responses.
func TestCancelMidStreamDrains(t *testing.T) {
	cfg := fleetConfig()
	cfg.QueryParallelism = 1
	db, srv, addr := startWorker(t, cfg)
	fillCluster(t, db.Append, 8, 400)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The hook parks the scan mid-stream until its context fires, so
	// the cancel demonstrably interrupts an in-progress stream rather
	// than racing a finished one.
	scanning := make(chan struct{})
	var once sync.Once
	var aborted atomic.Bool
	db.Engine().SetScanHook(func(ctx context.Context) error {
		once.Do(func() { close(scanning) })
		select {
		case <-ctx.Done():
			aborted.Store(true)
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})

	client, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-scanning
		cancel()
	}()
	start := time.Now()
	if _, err := client.Query(ctx, "SELECT Tid, TS, Value FROM DataPoint"); err == nil {
		t.Fatal("cancelled mid-stream query must fail")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled query returned after %s, want prompt", elapsed)
	}
	waitDrained(t, srv)
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlightStreams() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d streams still in flight after cancel", srv.InFlightStreams())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !aborted.Load() {
		t.Fatal("worker scan context never fired; cancel frame was not delivered")
	}
}

// TestStreamBackpressureStats: the in-flight stream count must be
// visible through the cluster Stats surface while a stream is being
// produced, and return to zero afterwards.
func TestStreamBackpressureStats(t *testing.T) {
	cfg := fleetConfig()
	cfg.QueryParallelism = 1
	db, srv, addr := startWorker(t, cfg)
	fillCluster(t, db.Append, 8, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	db.Engine().SetScanHook(func(ctx context.Context) error {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	client, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		_, err := client.Query(context.Background(), "SELECT COUNT(*) FROM DataPoint")
		done <- err
	}()
	<-started
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlightStreams != 1 {
		t.Fatalf("Stats.InFlightStreams = %d during a scatter, want 1", st.InFlightStreams)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitDrained(t, srv)
	st, err = client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlightStreams != 0 {
		t.Fatalf("Stats.InFlightStreams = %d after the scatter, want 0", st.InFlightStreams)
	}
}

// chunkWorker answers every query with fixed chunks, the way a broken
// or hostile peer can: DecodePartial accepts any well-formed frame,
// whatever shape it spells.
type chunkWorker struct {
	worker
	chunks []*query.PartialResult
}

// partials hands over a copy of each chunk, as emit owns what it gets,
// so the chunks stay the test's own.
func (w *chunkWorker) partials(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error {
	for _, part := range w.chunks {
		own := *part
		if part.Batch != nil {
			own.Batch = part.Batch.Clone()
		}
		if err := emit(&own); err != nil {
			return err
		}
	}
	return nil
}

// TestMalformedPartialIsWorkerError: a chunk that does not fit the
// query's compiled plan is a WorkerError on the master, and an error
// from Finalize, never a panic in the merge or the finalize and never
// a result with a mixed-kind column.
func TestMalformedPartialIsWorkerError(t *testing.T) {
	scalar := func(n int) []query.ScalarState {
		s := make([]query.ScalarState, n)
		for i := range s {
			s[i] = query.ScalarState{Count: 1, Sum: 1, Min: 1, Max: 1}
		}
		return s
	}
	groups := func(key []any, nscalars int) *query.PartialResult {
		return &query.PartialResult{IsAggregate: true, Groups: map[string]*query.GroupState{
			"1\x00": {Key: key, Scalars: scalar(nscalars)},
		}}
	}
	rows := func(types ...query.ColType) *query.PartialResult {
		return &query.PartialResult{Batch: query.NewColumnBatch(types)}
	}
	const byTid = "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid"
	for _, tc := range []struct {
		name, sql string
		chunks    []*query.PartialResult
	}{
		{"key shorter than GROUP BY", byTid, []*query.PartialResult{groups(nil, 1)}},
		{"fewer scalars than the plan", "SELECT SUM_S(*), COUNT_S(*) FROM Segment", []*query.PartialResult{{
			IsAggregate: true, Groups: map[string]*query.GroupState{"": {Scalars: scalar(1)}},
		}}},
		{"states of one key differ in length", byTid, []*query.PartialResult{groups([]any{int64(1)}, 1), groups([]any{int64(1)}, 2)}},
		{"rows chunk narrower than the one before", "SELECT Tid, TS, Value FROM DataPoint", []*query.PartialResult{
			rows(query.ColInt64, query.ColInt64, query.ColFloat64), rows(query.ColInt64, query.ColInt64),
		}},
		{"string key for Tid", byTid, []*query.PartialResult{groups([]any{"1"}, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewLocal(t.Context(), fleetConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.workers[1] = &chunkWorker{worker: c.workers[1], chunks: tc.chunks}
			_, err = c.Query(t.Context(), tc.sql)
			var werr *WorkerError
			if !errors.As(err, &werr) {
				t.Fatalf("Query = %v, want a WorkerError", err)
			}
			q, err := sqlparse.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := c.planner.Finalize(q, tc.chunks); err == nil {
				t.Fatalf("Finalize = %v, want an error", res.Rows)
			}
		})
	}
}
