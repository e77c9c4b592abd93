package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"modelardb/internal/query"
)

// poolBalance polls until every pooled batch taken since gets0/puts0
// is back, and fails with the difference if some stay out.
func poolBalance(t *testing.T, gets0, puts0 int64) (taken int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts := query.PoolCounts()
		if gets-gets0 == puts-puts0 {
			return gets - gets0
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled batches taken, %d released", gets-gets0, puts-puts0)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestScatterReleasesEveryChunkBatch: a scatter that streams several
// chunks per worker hands every pooled batch it takes back to the
// pool — each decoded (TCP) or copied (local) chunk batch included,
// after a finished query and after one that a malformed chunk fails.
func TestScatterReleasesEveryChunkBatch(t *testing.T) {
	cfg := fleetConfig()
	cfg.StreamChunkBytes = 4096
	masters := newMasters(t, cfg, 500)
	for i, kind := range masterKinds {
		c := masters[i]
		for _, sql := range []string{
			"SELECT Tid, TS, Value FROM DataPoint",
			"SELECT Tid, TS, Value FROM DataPoint ORDER BY Value DESC, TS LIMIT 10",
			"SELECT Park, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Park",
		} {
			gets0, puts0 := query.PoolCounts()
			res, err := c.Query(t.Context(), sql)
			if err != nil {
				t.Fatalf("%s %q: %v", kind, sql, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s %q: no rows", kind, sql)
			}
			// 4000 rows of 24 bytes in 4 KiB chunks: well over one chunk
			// per worker.
			if taken := poolBalance(t, gets0, puts0); sql == "SELECT Tid, TS, Value FROM DataPoint" && taken < 2*int64(len(c.workers)) {
				t.Fatalf("%s: %d pooled batches taken, want several chunks per worker", kind, taken)
			}
		}
	}

	c := masters[0]
	good := &query.PartialResult{Batch: query.NewColumnBatch([]query.ColType{query.ColInt64, query.ColInt64, query.ColFloat64})}
	bad := &query.PartialResult{Batch: query.NewColumnBatch([]query.ColType{query.ColInt64})}
	c.workers[1] = &chunkWorker{worker: c.workers[1], chunks: []*query.PartialResult{good, good, bad}}
	gets0, puts0 := query.PoolCounts()
	var werr *WorkerError
	if _, err := c.Query(t.Context(), "SELECT Tid, TS, Value FROM DataPoint"); !errors.As(err, &werr) {
		t.Fatalf("Query = %v, want a WorkerError", err)
	}
	poolBalance(t, gets0, puts0)
}

// TestConcurrentStreamsOnOneConn: several streamed calls share one
// worker connection, and with it its few read buffers, while each
// reads many small chunk frames. Every answer must be its own query's
// rows; run under -race, a buffer handed back while a decoder still
// reads it shows as a race or as a wrong row.
func TestConcurrentStreamsOnOneConn(t *testing.T) {
	const ticks = 300
	cfg := fleetConfig()
	cfg.StreamChunkBytes = 512
	_, _, addr := startWorker(t, cfg)
	c, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, ticks)
	if err := c.Flush(t.Context()); err != nil {
		t.Fatal(err)
	}
	want := func(tid int) [][]any {
		rows := make([][]any, ticks)
		for tick := range rows {
			rows[tick] = []any{int64(tid), int64(tick) * 1000, float64(float32(tid*100 + tick%7))}
		}
		return rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for tid := 1; tid <= 8; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT Tid, TS, Value FROM DataPoint WHERE Tid = %d ORDER BY TS", tid)
			for range 5 {
				res, err := c.Query(context.Background(), sql)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want(tid)) {
					errs <- fmt.Errorf("series %d: %d rows, not its own %d", tid, len(res.Rows), ticks)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(c.conn(0).free) == 0 {
		t.Fatal("no read buffer came back to the connection")
	}
}

// TestCloseKeepsAcceptedPoints: Close without Flush delivers every
// point Append accepted. Two TCP workers and 64-point batches used to
// keep only 1 024 to 1 280 of 1 600 points.
func TestCloseKeepsAcceptedPoints(t *testing.T) {
	cfg := fleetConfig()
	var addrs []string
	for range 2 {
		_, _, addr := startWorker(t, cfg)
		addrs = append(addrs, addr)
	}
	c, err := Dial(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	c.batchSize = 64
	pts := fleetPoints(200)
	for _, p := range pts {
		if err := c.Append(t.Context(), p.Tid, p.TS, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check, err := Dial(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	if err := check.Flush(t.Context()); err != nil {
		t.Fatal(err)
	}
	res, err := check.Query(t.Context(), "SELECT COUNT(*) FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; fmt.Sprint(got) != fmt.Sprint(len(pts)) {
		t.Fatalf("workers hold %v points after Close, want %d", got, len(pts))
	}
}

// TestCloseReportsDroppedPoints: when the workers do not acknowledge
// in time, Close gives up after Config.RPCTimeout and says how many
// accepted points it dropped.
func TestCloseReportsDroppedPoints(t *testing.T) {
	cfg := fleetConfig()
	cfg.RPCTimeout = 50 * time.Millisecond
	c, err := NewLocal(t.Context(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gateWorkers(c) // never opened: no Append is ever acknowledged
	pts := fleetPoints(5)
	for _, p := range pts {
		if err := c.Append(t.Context(), p.Tid, p.TS, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	err = c.Close()
	var derr *DroppedError
	if !errors.As(err, &derr) || derr.Points != len(pts) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want a DroppedError of %d points after the timeout", err, len(pts))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v", d)
	}
}
