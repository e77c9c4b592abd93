package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/core"
)

// waitSendFailed polls until worker w's sender has recorded a failed
// send and stopped, so the caller's next call is the retry.
func waitSendFailed(t *testing.T, c *Client, w int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.seq.mu.Lock()
		failed := c.seq.lanes[w].err != nil
		c.seq.mu.Unlock()
		if failed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker's send never failed")
		}
		time.Sleep(time.Millisecond)
	}
}

// gateWorker holds every apply until gate closes or the call's context
// ends, and records the most applies it ever had in flight at once.
type gateWorker struct {
	worker
	gate        chan struct{}
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

func (g *gateWorker) apply(ctx context.Context, args *AppendArgs) error {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for m := g.maxInFlight.Load(); n > m && !g.maxInFlight.CompareAndSwap(m, n); m = g.maxInFlight.Load() {
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.worker.apply(ctx, args)
}

// gateWorkers replaces every worker of c with a closed gateWorker
// around it.
func gateWorkers(c *Client) []*gateWorker {
	gates := make([]*gateWorker, len(c.workers))
	for i, w := range c.workers {
		gates[i] = &gateWorker{worker: w, gate: make(chan struct{})}
		c.workers[i] = gates[i]
	}
	return gates
}

// fleetPoints is fillCluster's workload as points: 8 series × ticks,
// tick-major.
func fleetPoints(ticks int) []core.DataPoint {
	pts := make([]core.DataPoint, 0, 8*ticks)
	for tick := 0; tick < ticks; tick++ {
		for tid := 1; tid <= 8; tid++ {
			pts = append(pts, core.DataPoint{Tid: modelardb.Tid(tid), TS: int64(tick) * 1000, Value: float32(tid*100 + tick%7)})
		}
	}
	return pts
}

// TestAppendPipelineBound: while a worker holds its Append, the master
// keeps sealing batches for it up to the bound; the sealing Append
// past the bound waits and returns ctx.Err() when its context is
// cancelled. The worker never has two Appends in flight, the queue
// never holds more than the bound plus the waiting batch, and the
// cancelled Append's point is still delivered.
func TestAppendPipelineBound(t *testing.T) {
	c, err := NewLocal(t.Context(), fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gate := gateWorkers(c)[0]
	c.batchSize = 2
	pts := fleetPoints(20)
	next := 0
	appendNext := func(ctx context.Context) error {
		p := pts[next]
		next++
		return c.Append(ctx, p.Tid, p.TS, p.Value)
	}
	checkQueue := func() {
		t.Helper()
		if q := c.seq.queued(); q > maxUnacked+1 {
			t.Fatalf("queue holds %d batches, bound is %d + 1", q, maxUnacked)
		}
	}
	// maxUnacked batches seal without waiting, the first one held by the
	// worker, and the next batch fills up to its last point.
	for next < (maxUnacked+1)*c.batchSize-1 {
		if err := appendNext(t.Context()); err != nil {
			t.Fatalf("Append %d under the bound = %v", next, err)
		}
		checkQueue()
	}
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	go func() { done <- appendNext(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Append past the bound returned %v while the worker held every batch", err)
	case <-time.After(50 * time.Millisecond):
	}
	if q := c.seq.queued(); q != maxUnacked+1 {
		t.Fatalf("queue holds %d batches while the Append past the bound waits, want %d", q, maxUnacked+1)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Append past the bound = %v, want context.Canceled", err)
	}
	close(gate.gate)
	for next < len(pts) {
		if err := appendNext(t.Context()); err != nil {
			t.Fatal(err)
		}
		checkQueue()
	}
	if err := c.Flush(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := gate.maxInFlight.Load(); n != 1 {
		t.Fatalf("worker had %d Appends in flight at once, want 1", n)
	}
	res, err := c.Query(t.Context(), "SELECT COUNT(*) FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; fmt.Sprint(got) != fmt.Sprint(len(pts)) {
		t.Fatalf("points = %v, want %d", got, len(pts))
	}
}

// TestAppendPipelineErrorSurfaces: a worker that fails every Append
// cannot fail silently for long. The sealing Append that retries its
// failed batch, AppendBatch and Flush all return the WorkerError, and
// once the worker recovers it receives every accepted point, in order.
func TestAppendPipelineErrorSurfaces(t *testing.T) {
	var (
		mu      sync.Mutex
		failing = true
		got     []core.DataPoint
	)
	addr := startFakeWorker(t, func(f *frame) []*frame {
		resp := &frame{Kind: frameResponse, ID: f.ID}
		if f.Method != "Append" {
			return []*frame{resp}
		}
		mu.Lock()
		defer mu.Unlock()
		args := &AppendArgs{}
		switch {
		case failing:
			resp.Err = "synthetic worker failure"
		case decodeBody(f.Body, args) != nil:
			resp.Err = "undecodable append"
		default:
			got = append(got, args.Points...)
		}
		return []*frame{resp}
	})
	client, err := Dial(fleetConfig(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 4
	ctx := t.Context()
	pts := fleetPoints(12)
	var werr *WorkerError
	n := 0
	for ; n < (maxUnacked+1)*client.batchSize; n++ {
		p := pts[n]
		if err = client.Append(ctx, p.Tid, p.TS, p.Value); err != nil {
			n++ // the point was accepted all the same
			break
		}
	}
	if !errors.As(err, &werr) {
		t.Fatalf("Append up to the bound over a failing worker = %v, want a WorkerError", err)
	}
	if err := client.AppendBatch(ctx, pts[n:n+8]); !errors.As(err, &werr) {
		t.Fatalf("AppendBatch over a failing worker = %v, want a WorkerError", err)
	}
	if err := client.Flush(ctx); !errors.As(err, &werr) {
		t.Fatalf("Flush over a failing worker = %v, want a WorkerError", err)
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	if err := client.Flush(ctx); err != nil {
		t.Fatalf("Flush after the worker recovered = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := pts[:n+8]
	if len(got) != len(want) {
		t.Fatalf("worker received %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %v, want %v (lost or reordered)", i, got[i], want[i])
		}
	}
}

// TestAppendPipelineCloseStopsSenders: Close stops every sender, even
// one whose worker holds its Append forever, and leaves no goroutine
// of the client behind.
func TestAppendPipelineCloseStopsSenders(t *testing.T) {
	for _, kind := range masterKinds {
		t.Run(kind, func(t *testing.T) {
			// The fake TCP worker holds every Append until release; its
			// own goroutines are the test's, so they are let go before
			// the count.
			release := make(chan struct{})
			var addr string
			if kind == "tcp" {
				addr = startFakeWorker(t, func(f *frame) []*frame {
					<-release
					return []*frame{{Kind: frameResponse, ID: f.ID}}
				})
			}
			baseline := runtime.NumGoroutine()
			var c *Client
			var err error
			if kind == "local" {
				c, err = NewLocal(t.Context(), fleetConfig(), 2)
				if err == nil {
					gateWorkers(c)
				}
			} else {
				c, err = Dial(fleetConfig(), []string{addr})
			}
			if err != nil {
				t.Fatal(err)
			}
			c.batchSize = 2
			for _, p := range fleetPoints(1) {
				if err := c.Append(t.Context(), p.Tid, p.TS, p.Value); err != nil {
					t.Fatal(err)
				}
			}
			if c.seq.queued() == 0 {
				t.Fatal("no batch is waiting on the stalled worker")
			}
			c.Close()
			close(release)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the client", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

// seqRecorder checks, as the master sends them, that each group's
// batch sequences reach the worker strictly ascending.
type seqRecorder struct {
	worker
	mu   sync.Mutex
	last map[modelardb.Gid]uint64
	bad  error
}

func (r *seqRecorder) apply(ctx context.Context, args *AppendArgs) error {
	r.mu.Lock()
	for gid, seq := range args.Seqs {
		if seq <= r.last[gid] && r.bad == nil {
			r.bad = fmt.Errorf("group %d: sequence %d sent after %d", gid, seq, r.last[gid])
		}
		r.last[gid] = seq
	}
	r.mu.Unlock()
	return r.worker.apply(ctx, args)
}

// TestAppendPipelineConcurrentOrder: several goroutines Append at once,
// each owning some groups. Every group's sequences reach its worker
// strictly ascending, and the cluster ends up with exactly what a
// single node ingesting the same points holds.
func TestAppendPipelineConcurrentOrder(t *testing.T) {
	const ticks, producers = 300, 4
	pts := fleetPoints(ticks)
	ref, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.AppendBatch(t.Context(), pts); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := queryTidSums(t, ref)
	for _, kind := range masterKinds {
		t.Run(kind, func(t *testing.T) {
			var c *Client
			var err error
			if kind == "local" {
				c, err = NewLocal(t.Context(), fleetConfig(), 3)
			} else {
				var addrs []string
				for i := 0; i < 2; i++ {
					_, _, addr := startWorker(t, fleetConfig())
					addrs = append(addrs, addr)
				}
				c, err = Dial(fleetConfig(), addrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.batchSize = 8
			recs := make([]*seqRecorder, len(c.workers))
			for i, w := range c.workers {
				recs[i] = &seqRecorder{worker: w, last: map[modelardb.Gid]uint64{}}
				c.workers[i] = recs[i]
			}
			// Producer g appends the points of the groups whose Gid is g
			// modulo producers, so each group's points keep their order.
			errs := make(chan error, producers)
			for g := 0; g < producers; g++ {
				go func() {
					for _, p := range pts {
						if r, _ := c.route(p.Tid); int(r.gid)%producers != g {
							continue
						}
						if err := c.Append(t.Context(), p.Tid, p.TS, p.Value); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for g := 0; g < producers; g++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(t.Context()); err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if r.bad != nil {
					t.Fatalf("worker %d: %v", i, r.bad)
				}
			}
			got := queryTidSums(t, c)
			if len(got) != len(want) {
				t.Fatalf("got %d tids, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i][1] != want[i][1] || math.Abs(got[i][0]-want[i][0]) > 1e-6*math.Max(1, math.Abs(want[i][0])) {
					t.Fatalf("tid %d: (sum, count) = %v, want %v", i+1, got[i], want[i])
				}
			}
		})
	}
}
