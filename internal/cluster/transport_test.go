package cluster

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
)

// startFakeWorker listens on loopback and serves each connection with
// handle, which receives every request frame and returns the frames to
// send. A reply that ends in a response keeps the connection; any
// other — nil included — is sent and then the connection is closed,
// simulating a worker dying mid-call. Cancel frames are ignored, like
// a worker too busy to notice them.
func startFakeWorker(t *testing.T, handle func(f *frame) []*frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					f, err := readFrame(br)
					if err != nil {
						return
					}
					if f.Kind != frameRequest {
						continue
					}
					if f.Method == "IngestState" {
						// Answer the dial-time seeding handshake like a fresh
						// worker; tests drive the methods they care about.
						if err := writeFrame(conn, &frame{Kind: frameResponse, ID: f.ID, enc: &IngestStateReply{}}); err != nil {
							return
						}
						continue
					}
					reply := handle(f)
					for _, rf := range reply {
						if err := writeFrame(conn, rf); err != nil {
							return
						}
					}
					if len(reply) == 0 || reply[len(reply)-1].Kind != frameResponse {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// startWorker opens a real worker database and serves it over TCP,
// returning the database (for hooks and direct ingestion), the server
// (for InFlight assertions) and its address.
func startWorker(t *testing.T, cfg modelardb.Config) (*modelardb.DB, *Server, string) {
	t.Helper()
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(context.Background(), ln)
	return db, srv, ln.Addr().String()
}

// masterKinds names the two worker kinds a master runs over, in the
// order newMasters returns them.
var masterKinds = []string{"local", "tcp"}

// newMasters builds one master over cfg per worker kind — "local" runs
// three in-process workers (NewLocal), "tcp" dials two workers served
// over loopback (Dial) — and fills and flushes each with fillCluster's
// workload of 8 series × ticks. The masters close when the test ends.
func newMasters(t *testing.T, cfg modelardb.Config, ticks int) []*Client {
	t.Helper()
	var masters []*Client
	for _, kind := range masterKinds {
		var c *Client
		var err error
		if kind == "local" {
			c, err = NewLocal(context.Background(), cfg, 3)
		} else {
			var addrs []string
			for i := 0; i < 2; i++ {
				_, _, addr := startWorker(t, cfg)
				addrs = append(addrs, addr)
			}
			c, err = Dial(cfg, addrs)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		fillCluster(t, clientAppend(c), 8, ticks)
		if err := c.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		masters = append(masters, c)
	}
	return masters
}

// conn returns remote worker w's current connection.
func (c *Client) conn(w int) *wireConn { return c.workers[w].(*remoteWorker).current() }

// localDB returns local worker w's database.
func localDB(c *Client, w int) *modelardb.DB { return c.workers[w].(*localWorker).db }

// waitDrained polls until the server has no in-flight calls, proving a
// cancelled scan's goroutine actually finished rather than leaking.
func waitDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker did not drain: %d calls still in flight", srv.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientAppendRequeueOnFailure: a failed Worker.Append used to
// drop the already-dequeued batch on the floor. Now the batch stays
// queued in order and the next Flush replays it, so a transient worker
// failure loses no accepted point. The sealing Append does not wait
// for its batch, so it returns nil; the failure shows in the master's
// RPC error counter.
func TestClientAppendRequeueOnFailure(t *testing.T) {
	var (
		mu      sync.Mutex
		failing = true
		got     []core.DataPoint
	)
	addr := startFakeWorker(t, func(f *frame) []*frame {
		resp := &frame{Kind: frameResponse, ID: f.ID}
		switch f.Method {
		case "Append":
			mu.Lock()
			if failing {
				resp.Err = "synthetic worker failure"
			} else {
				args := &AppendArgs{}
				if err := decodeBody(f.Body, args); err != nil {
					resp.Err = err.Error()
				} else {
					got = append(got, args.Points...)
				}
			}
			mu.Unlock()
		case "Flush":
		default:
			resp.Err = "unexpected method " + f.Method
		}
		return []*frame{resp}
	})
	client, err := Dial(fleetConfig(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 4
	var want []core.DataPoint
	for i := 0; i < 4; i++ {
		p := core.DataPoint{Tid: modelardb.Tid(i + 1), TS: int64(i) * 1000, Value: float32(i)}
		want = append(want, p)
		// The fourth Append fills and seals the batch, and returns
		// before the worker answers.
		if err := client.Append(context.Background(), p.Tid, p.TS, p.Value); err != nil {
			t.Fatalf("Append %d = %v, want nil", i+1, err)
		}
	}
	// The send fails behind the caller's back; wait until the sender has
	// recorded it, then let the worker recover, so that Flush is the
	// retry.
	waitSendFailed(t, client, 0)
	mu.Lock()
	failing = false
	mu.Unlock()
	// No accepted point was lost: the batch stayed queued and Flush
	// replays it in its original order.
	if err := client.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker received %v after retry, want %v", got, want)
	}
	if n := client.Metrics().Snapshot()["modelardb_rpc_client_errors_total"]; n != 1 {
		t.Fatalf("modelardb_rpc_client_errors_total = %v, want 1", n)
	}
}

// TestRPCCancelMidScanOverTCP: cancelling the master-side context of
// an in-flight query returns immediately on the master and stops the
// worker-side scan within one segment — the Cancel frame fires the
// per-call context the scan runs under.
func TestRPCCancelMidScanOverTCP(t *testing.T) {
	cfg := fleetConfig()
	// One scan worker, so segments are visited one at a time. The
	// executor itself checks the context only between chunks, and this
	// store is a single chunk; the hook pins the cancellation point to a
	// segment by returning the per-call context's error.
	cfg.QueryParallelism = 1
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	entered := make(chan struct{})
	var once sync.Once
	var progress atomic.Int64
	// Install the hook before serving so every dispatch goroutine
	// observes it: each scanned segment counts, then blocks until the
	// per-call context fires — aborting the scan with its error — or a
	// fallback far beyond the deadlines asserted below passes.
	db.Engine().SetScanHook(func(ctx context.Context) error {
		progress.Add(1)
		once.Do(func() { close(entered) })
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(context.Background(), ln)

	client, err := Dial(cfg, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Ingest directly: the hook only fires on query scans.
	fillCluster(t, db.Append, 8, 400)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 8 {
		t.Fatalf("fixture too small: %d segments", st.Segments)
	}

	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	qerr := make(chan error, 1)
	go func() {
		_, err := client.Query(qctx, "SELECT SUM_S(*) FROM Segment")
		qerr <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker-side scan never started")
	}
	qcancel()
	select {
	case err := <-qerr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Query = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query did not return on the master")
	}
	// The worker's dispatch goroutine must finish (scan aborted) …
	waitDrained(t, srv)
	// … after at most the segment it was in when the Cancel landed,
	// nowhere near the full store.
	if got := progress.Load(); got > 3 {
		t.Fatalf("scan processed %d segments after cancel (store has %d)", got, st.Segments)
	}
}

// TestRPCWorkerDiesMidQuery: a worker dropping its connection mid-call
// propagates a deterministic transport error, and the fail-fast
// scatter cancels the surviving workers' in-flight scans.
func TestRPCWorkerDiesMidQuery(t *testing.T) {
	cfg := fleetConfig()
	cfg.QueryParallelism = 1
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	scanning := make(chan struct{})
	var onceScan sync.Once
	var aborted atomic.Bool
	db.Engine().SetScanHook(func(ctx context.Context) error {
		onceScan.Do(func() { close(scanning) })
		select {
		case <-ctx.Done():
			aborted.Store(true)
		case <-time.After(5 * time.Second):
		}
		return nil
	})
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(context.Background(), ln)

	// The second worker dies on its first ExecutePartialStream: it waits
	// until the surviving sibling's scan is demonstrably in flight,
	// then closes the connection without a response.
	dying := startFakeWorker(t, func(f *frame) []*frame {
		if f.Method == "ExecutePartialStream" {
			<-scanning
			return nil
		}
		return []*frame{{Kind: frameResponse, ID: f.ID}}
	})

	client, err := Dial(cfg, []string{ln.Addr().String(), dying})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// The surviving worker needs segments so its scan really is in
	// flight when the sibling dies.
	fillCluster(t, db.Append, 8, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = client.Query(context.Background(), "SELECT SUM_S(*) FROM Segment")
	if err == nil {
		t.Fatal("query against a dying worker must fail")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deterministic error must be the connection loss, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fail-fast scatter took %s; the surviving scan was not cancelled", elapsed)
	}
	waitDrained(t, srv)
	deadline := time.Now().Add(2 * time.Second)
	for !aborted.Load() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !aborted.Load() {
		t.Fatal("surviving worker's scan context never fired")
	}
}

// TestClientQueryValidatesOnMaster: parse and semantic errors are
// caught by the master's planner before any RPC is issued —
// a bad query no longer costs a full scatter.
func TestClientQueryValidatesOnMaster(t *testing.T) {
	var scatters atomic.Int64
	addr := startFakeWorker(t, func(f *frame) []*frame {
		if f.Method == "ExecutePartialStream" {
			scatters.Add(1)
		}
		return []*frame{{Kind: frameResponse, ID: f.ID, Err: "must not be reached"}}
	})
	client, err := Dial(fleetConfig(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, sql := range []string{
		"SELECT FROM",               // parse error
		"SELECT Nope FROM Segment",  // unknown column
		"SELECT Value FROM Segment", // DataPoint-view column on Segment
	} {
		if _, err := client.Query(context.Background(), sql); err == nil {
			t.Errorf("Query(%q) must fail", sql)
		}
	}
	if n := scatters.Load(); n != 0 {
		t.Fatalf("invalid queries reached the workers %d times", n)
	}
}

// TestClientCallTimeout: Config.RPCTimeout bounds each call, so an
// unresponsive worker yields context.DeadlineExceeded instead of a
// hung master.
func TestClientCallTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := startFakeWorker(t, func(f *frame) []*frame {
		<-block // never answers in time
		return nil
	})
	cfg := fleetConfig()
	cfg.RPCTimeout = 100 * time.Millisecond
	client, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = client.Query(context.Background(), "SELECT SUM_S(*) FROM Segment")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out call returned after %s", elapsed)
	}
}

// TestWireConnConcurrentCalls: many interleaved calls share one
// connection; responses match their callers by ID.
func TestWireConnConcurrentCalls(t *testing.T) {
	addr := startFakeWorker(t, func(f *frame) []*frame {
		// Echo the request body back so a mismatched response would be
		// caught by the caller's reply check.
		return []*frame{{Kind: frameResponse, ID: f.ID, Body: f.Body}}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn)
	defer wc.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				args := &StreamQueryArgs{SQL: string(rune('A'+i)) + "-query"}
				reply := &StreamQueryArgs{}
				if err := wc.Call(context.Background(), "Echo", args, reply, nil); err != nil {
					t.Errorf("call %d/%d: %v", i, j, err)
					return
				}
				if reply.SQL != args.SQL {
					t.Errorf("call %d/%d: reply %q for request %q", i, j, reply.SQL, args.SQL)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestRetryOnlyBeforeFirstChunk pins the one retry rule: a call that
// loses its connection is retried until its first chunk has reached
// the caller, and never after it.
func TestRetryOnlyBeforeFirstChunk(t *testing.T) {
	const sql = "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid"
	ctx := context.Background()
	db, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillCluster(t, db.Append, 8, 200)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	// The fakes answer with the chunks a real worker over this data
	// sends, encoded as a Server encodes them.
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	if err := db.Engine().ExecutePartialChunks(ctx, q, 0, func(part *query.PartialResult) error {
		chunks = append(chunks, query.EncodePartial(nil, part))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("the query produced no chunk")
	}
	// run runs sql on a master over one fake worker that answers the
	// n-th ExecutePartialStream request f with stream(n, f), and reports
	// the number of those requests and the outcome.
	run := func(stream func(n int64, f *frame) []*frame) (int64, *modelardb.Result, error) {
		var streams atomic.Int64
		addr := startFakeWorker(t, func(f *frame) []*frame {
			if f.Method != "ExecutePartialStream" {
				return []*frame{{Kind: frameResponse, ID: f.ID}}
			}
			return stream(streams.Add(1), f)
		})
		client, err := Dial(fleetConfig(), []string{addr})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res, err := client.Query(ctx, sql)
		return streams.Load(), res, err
	}

	// (a) The first connection drops before any chunk: the master
	// redials and the retry returns the single-node answer.
	n, res, err := run(func(n int64, f *frame) []*frame {
		if n == 1 {
			return nil
		}
		var reply []*frame
		for i, body := range chunks {
			reply = append(reply, &frame{Kind: frameChunk, ID: f.ID, Seq: uint64(i), Body: body})
		}
		return append(reply, &frame{Kind: frameResponse, ID: f.ID})
	})
	if err != nil {
		t.Fatalf("a loss before the first chunk: Query = %v, want the retry's answer", err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("after the retry: rows %v, single node %v", res.Rows, want.Rows)
	}
	if n != 2 {
		t.Fatalf("a loss before the first chunk: %d ExecutePartialStream requests, want 2", n)
	}

	// (b) One valid chunk reaches the master, then the connection
	// drops: a replay would merge that chunk twice, so the query fails.
	n, _, err = run(func(n int64, f *frame) []*frame {
		return []*frame{{Kind: frameChunk, ID: f.ID, Body: chunks[0]}}
	})
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("a loss after the first chunk: Query = %v, want ErrConnectionLost", err)
	}
	if n != 1 {
		t.Fatalf("a loss after the first chunk: %d ExecutePartialStream requests, want 1", n)
	}
}

// TestServerFrameSequence: a real Server answers a call without chunks
// with exactly one response and no chunk, and ExecutePartialStream
// with chunks numbered 0..n-1 and then one response.
func TestServerFrameSequence(t *testing.T) {
	db, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillCluster(t, db.Append, 8, 400)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	master, worker := net.Pipe()
	defer master.Close()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(context.Background(), worker) }()
	requests := []*frame{
		{Kind: frameRequest, ID: 1, Method: "Flush"},
		{Kind: frameRequest, ID: 2, Method: "ExecutePartialStream", enc: &StreamQueryArgs{SQL: "SELECT Tid, TS, Value FROM DataPoint", ChunkBytes: 2048}},
		{Kind: frameRequest, ID: 3, Method: "IngestState"},
	}
	go func() {
		for _, f := range requests {
			if err := writeFrame(master, f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	chunks := map[uint64]uint64{}
	answered := map[uint64]bool{}
	for len(answered) < len(requests) {
		f, err := readFrame(master)
		if err != nil {
			t.Fatal(err)
		}
		if answered[f.ID] {
			t.Fatalf("%+v after call %d's response", f, f.ID)
		}
		switch f.Kind {
		case frameChunk:
			if f.Seq != chunks[f.ID] {
				t.Fatalf("call %d: chunk %d arrived at position %d", f.ID, f.Seq, chunks[f.ID])
			}
			chunks[f.ID]++
		case frameResponse:
			if f.Err != "" {
				t.Fatalf("call %d: %s", f.ID, f.Err)
			}
			answered[f.ID] = true
		default:
			t.Fatalf("the server sent %+v", f)
		}
	}
	if chunks[1] != 0 || chunks[3] != 0 || chunks[2] < 2 {
		t.Fatalf("chunks per call %v, want none for calls 1 and 3 and several for call 2", chunks)
	}
	// Every call has ended, so nothing more may arrive.
	waitDrained(t, srv)
	master.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := readFrame(master); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after the last response: %+v, %v", f, err)
	}
	master.Close()
	if err := <-served; err == nil {
		t.Fatal("ServeConn returned nil for a closed connection")
	}
}

// TestChunkForCallWithoutChunks: a chunk frame for a live call that
// takes no chunks is a protocol violation that fails the connection
// with ErrConnectionLost.
func TestChunkForCallWithoutChunks(t *testing.T) {
	addr := startFakeWorker(t, func(f *frame) []*frame {
		return []*frame{{Kind: frameChunk, ID: f.ID, Body: []byte{1}}, {Kind: frameResponse, ID: f.ID}}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(conn)
	defer wc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for range 2 { // the second call finds the connection failed
		if err := wc.Call(ctx, "Flush", nil, nil, nil); !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("Call = %v, want ErrConnectionLost", err)
		}
	}
}
