package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/query"
)

// faultProxy is a frame-aware TCP proxy between a master and one
// worker that injects the two ambiguous Append failures the
// exactly-once contract must survive:
//
//   - dropRequest: the connection dies before the worker sees the
//     batch (a clean loss — the retry must deliver it).
//   - dropResponse: the worker executes the batch but the master never
//     learns (the classic ambiguous timeout — the retry must be
//     deduplicated or the points double-ingest).
//
// Both kill the TCP connection, so the master's reconnect retry loop
// redials the proxy, which keeps accepting.
type faultProxy struct {
	ln     net.Listener
	target string

	mu           sync.Mutex
	appendSeen   int
	dropRequest  func(n int) bool // n is the 1-based Append count
	dropResponse func(n int) bool
	conns        []net.Conn
}

func newFaultProxy(t *testing.T, target string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &faultProxy{ln: ln, target: target}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.pipe(conn)
		}
	}()
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

// pipe forwards frames between one master connection and a fresh
// worker connection, applying the fault decisions per Append frame.
func (p *faultProxy) pipe(cconn net.Conn) {
	defer cconn.Close()
	wconn, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer wconn.Close()
	p.mu.Lock()
	p.conns = append(p.conns, cconn, wconn)
	p.mu.Unlock()
	var mu sync.Mutex
	dropOnResp := map[uint64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		br := bufio.NewReader(wconn)
		for {
			f, err := readFrame(br)
			if err != nil {
				return
			}
			mu.Lock()
			drop := f.Kind == frameResponse && dropOnResp[f.ID]
			mu.Unlock()
			if drop {
				// The worker executed the call; kill both sides so the
				// master sees only a dead connection.
				cconn.Close()
				wconn.Close()
				return
			}
			if err := writeFrame(cconn, f); err != nil {
				return
			}
		}
	}()
	br := bufio.NewReader(cconn)
	for {
		f, err := readFrame(br)
		if err != nil {
			break
		}
		if f.Kind == frameRequest && f.Method == "Append" {
			p.mu.Lock()
			p.appendSeen++
			n := p.appendSeen
			dreq := p.dropRequest != nil && p.dropRequest(n)
			dresp := p.dropResponse != nil && p.dropResponse(n)
			p.mu.Unlock()
			if dreq {
				cconn.Close()
				break
			}
			if dresp {
				mu.Lock()
				dropOnResp[f.ID] = true
				mu.Unlock()
			}
		}
		if err := writeFrame(wconn, f); err != nil {
			break
		}
	}
	wconn.Close()
	<-done
}

// appendCount reports how many Append frames reached the proxy.
func (p *faultProxy) appendCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendSeen
}

// killAll severs every live proxied connection — combined with closing
// the worker's listener this is a worker process death: nothing
// in-flight survives, the master must redial.
func (p *faultProxy) killAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// queryTidSums runs the reference aggregate on any Query-capable
// deployment and returns per-Tid (sum, count) rows.
func queryTidSums(t *testing.T, q interface {
	Query(context.Context, string) (*modelardb.Result, error)
}) [][2]float64 {
	t.Helper()
	res, err := q.Query(context.Background(), "SELECT Tid, SUM(Value), COUNT(*) FROM DataPoint GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]float64, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, [2]float64{row[1].(float64), row[2].(float64)})
	}
	return out
}

// TestExactlyOnceIngestionFaultInjection is the tentpole's acceptance
// property: with fault injection forcing dropped requests, ambiguous
// dropped responses (worker applied, master retried) and a worker
// kill-and-restart over TCP, the cluster's query results equal a
// no-fault single-node run — no duplicated and no lost points.
func TestExactlyOnceIngestionFaultInjection(t *testing.T) {
	const ticks = 120
	cfg := fleetConfig()
	cfg.Path = t.TempDir()
	cfg.WALDir = t.TempDir()
	cfg.WALFsync = "always"
	cfg.RetryBudget = 10 * time.Second

	// The no-fault reference: a single node ingesting the same stream.
	refCfg := fleetConfig()
	ref, err := modelardb.Open(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fillCluster(t, ref.Append, 8, ticks)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := queryTidSums(t, ref)

	// The worker under test, behind the fault proxy.
	db1, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerAddr := ln.Addr().String()
	go NewServer(db1).Serve(context.Background(), ln)
	proxy := newFaultProxy(t, workerAddr)
	// Every 5th Append loses its response after the worker applied it;
	// every 7th never reaches the worker at all.
	proxy.mu.Lock()
	proxy.dropResponse = func(n int) bool { return n%5 == 0 }
	proxy.dropRequest = func(n int) bool { return n%7 == 3 }
	proxy.mu.Unlock()

	client, err := Dial(cfg, []string{proxy.addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 16

	// First half of the stream, with both fault kinds firing.
	half := ticks / 2
	for tick := 0; tick < half; tick++ {
		for tid := 1; tid <= 8; tid++ {
			v := float32(tid*100 + tick%7)
			if err := client.Append(context.Background(), modelardb.Tid(tid), int64(tick)*1000, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Kill the worker: listener gone, every established connection
	// severed, nothing flushed, the DB abandoned with its state only on
	// the WAL. Restart it from the same directories on the same address
	// — the dedup table must come back with it.
	ln.Close()
	proxy.killAll()
	db2, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	ln2, err := net.Listen("tcp", workerAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln2.Close() })
	go NewServer(db2).Serve(context.Background(), ln2)

	// Second half of the stream rides the reconnect retry loop.
	for tick := half; tick < ticks; tick++ {
		for tid := 1; tid <= 8; tid++ {
			v := float32(tid*100 + tick%7)
			if err := client.Append(context.Background(), modelardb.Tid(tid), int64(tick)*1000, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := client.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The faults must actually have fired for this test to mean
	// anything: 8 series × ticks / BatchSize appends, plus retries.
	if n := proxy.appendCount(); n < 10 {
		t.Fatalf("only %d Append frames crossed the proxy; fixture too small", n)
	}

	got := queryTidSums(t, client)
	if len(got) != len(want) {
		t.Fatalf("got %d tids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][1] != want[i][1] {
			t.Fatalf("tid %d: count = %v, want %v (duplicated or lost points)", i+1, got[i][1], want[i][1])
		}
		if math.Abs(got[i][0]-want[i][0]) > 1e-6*math.Max(1, math.Abs(want[i][0])) {
			t.Fatalf("tid %d: sum = %v, want %v", i+1, got[i][0], want[i][0])
		}
	}

	// The worker's stats agree: exactly one copy of every point was
	// ingested across both incarnations (replayed points count again in
	// the restarted session, so compare the authoritative query count
	// instead of session counters when faults span a restart).
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != 8*ticks {
		t.Fatalf("worker ingested %d points in its current session, want %d", st.DataPoints, 8*ticks)
	}
}

// TestMasterRestartSeedsSequences: a new master dialing workers that
// already ingested sequenced batches must continue above their applied
// marks — otherwise its fresh batches would be dropped as duplicates.
func TestMasterRestartSeedsSequences(t *testing.T) {
	const ticks = 40
	cfg := fleetConfig()
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(db).Serve(context.Background(), ln)

	// First master ingests the first half and goes away without Flush.
	m1, err := Dial(cfg, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	m1.batchSize = 8
	fillCluster(t, clientAppend(m1), 8, ticks/2)
	if err := m1.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Second master continues the stream. Without seeding it would
	// reuse sequences 1.. and the worker would silently skip them.
	m2, err := Dial(cfg, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	m2.batchSize = 8
	for tick := ticks / 2; tick < ticks; tick++ {
		for tid := 1; tid <= 8; tid++ {
			v := float32(tid*100 + tick%7)
			if err := m2.Append(context.Background(), modelardb.Tid(tid), int64(tick)*1000, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := m2.Query(context.Background(), "SELECT COUNT(*) FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; fmt.Sprint(got) != fmt.Sprint(8*ticks) {
		t.Fatalf("points after master restart = %v, want %d", got, 8*ticks)
	}
}

// fakeWorker wraps a real worker for tests: it counts the scatters it
// is asked to run and fails chosen appends either before the wrapped
// worker applies the batch (a clean loss — the retry must deliver it)
// or after (the ambiguous failure — applied, yet reported failed, so
// the retry must be deduplicated or the points double-ingest).
type fakeWorker struct {
	worker
	failBefore, failAfter func(n int) bool // n is the 1-based apply count
	applies               atomic.Int64
	scatters              atomic.Int64
}

var errInjected = errors.New("injected append failure")

func (f *fakeWorker) apply(ctx context.Context, args *AppendArgs) error {
	n := int(f.applies.Add(1))
	if f.failBefore != nil && f.failBefore(n) {
		return errInjected
	}
	err := f.worker.apply(ctx, args)
	if err == nil && f.failAfter != nil && f.failAfter(n) {
		return errInjected
	}
	return err
}

func (f *fakeWorker) partials(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error {
	f.scatters.Add(1)
	return f.worker.partials(ctx, args, emit)
}

// fakeWorkers replaces every worker of c with a fakeWorker around it.
func fakeWorkers(c *Client, failBefore, failAfter func(n int) bool) []*fakeWorker {
	fakes := make([]*fakeWorker, len(c.workers))
	for i, w := range c.workers {
		fakes[i] = &fakeWorker{worker: w, failBefore: failBefore, failAfter: failAfter}
		c.workers[i] = fakes[i]
	}
	return fakes
}

// TestLocalClusterAppendBatchRetryIdempotent is the exactly-once
// property on a master over in-process workers: with every third
// append failing before the worker applies it, or after (ambiguous),
// and the caller retrying Flush until it succeeds, the query results
// equal a no-fault single-node run — no duplicated and no lost points.
func TestLocalClusterAppendBatchRetryIdempotent(t *testing.T) {
	const ticks = 120
	ref, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fillCluster(t, ref.Append, 8, ticks)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := queryTidSums(t, ref)
	everyThird := func(n int) bool { return n%3 == 1 }
	for _, tc := range []struct {
		name          string
		before, after func(n int) bool
	}{
		{"before", everyThird, nil},
		{"after", nil, everyThird},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewLocal(t.Context(), fleetConfig(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fakeWorkers(c, tc.before, tc.after)
			failed := 0
			// A failed send stays queued with its sequences; the next
			// AppendBatch retries it before its own batch.
			batch := make([]modelardb.DataPoint, 0, 64)
			for tick := 0; tick < ticks; tick++ {
				for tid := 1; tid <= 8; tid++ {
					batch = append(batch, modelardb.DataPoint{Tid: modelardb.Tid(tid), TS: int64(tick) * 1000, Value: float32(tid*100 + tick%7)})
				}
				if len(batch) == cap(batch) || tick == ticks-1 {
					if err := c.AppendBatch(t.Context(), batch); errors.Is(err, errInjected) {
						failed++
					} else if err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			for attempt := 0; ; attempt++ {
				err := c.Flush(t.Context())
				if err == nil {
					break
				}
				if !errors.Is(err, errInjected) || attempt == 10 {
					t.Fatal(err)
				}
				failed++
			}
			if failed == 0 {
				t.Fatal("no append failed; the fault never fired")
			}
			got := queryTidSums(t, c)
			if len(got) != len(want) {
				t.Fatalf("got %d tids, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i][1] != want[i][1] || math.Abs(got[i][0]-want[i][0]) > 1e-6*math.Max(1, math.Abs(want[i][0])) {
					t.Fatalf("tid %d: (sum, count) = %v, want %v (duplicated or lost points)", i+1, got[i], want[i])
				}
			}
			st, err := c.Stats(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if st.DataPoints != 8*ticks {
				t.Fatalf("workers ingested %d points, want %d", st.DataPoints, 8*ticks)
			}
		})
	}
}
