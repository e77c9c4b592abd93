package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
)

// Server exposes one worker's ingestion and query execution over the
// framed transport (transport.go). The paper's workers are Spark
// executors with co-located Cassandra nodes; here each worker is a DB
// with its own store. Every call runs under a per-call context derived
// from its connection's context, so the master can abort an in-flight
// scan with a Cancel frame — and a dropped master connection aborts
// every call it had in flight.
type Server struct {
	db *modelardb.DB
	// met holds the worker-side RPC instruments, registered into the
	// DB's own registry: the in-flight and stream gauges therefore ride
	// every snapshot (Stats, the Snapshot RPC, /metrics) without any
	// per-surface overlay.
	met *obs.RPCServerMetrics
}

// serverMethods names every RPC the server dispatches; each gets its
// own handle-latency histogram.
var serverMethods = []string{
	"Append", "IngestState", "Flush", "ExecutePartialStream",
	"Stats", "Snapshot",
}

// NewServer wraps a database as a transport worker.
func NewServer(db *modelardb.DB) *Server {
	return &Server{db: db, met: obs.NewRPCServerMetrics(db.Metrics(), serverMethods)}
}

// InFlight reports the number of calls currently executing; tests and
// monitoring use it to observe that cancelled scans actually drain.
func (s *Server) InFlight() int { return int(s.met.InFlight.Value()) }

// InFlightStreams reports the number of streaming scatter replies
// currently being produced — the backpressure signal surfaced through
// cluster Stats.
func (s *Server) InFlightStreams() int { return int(s.met.Streams.Value()) }

// AppendArgs is a batch of data points for one worker. Seqs carries
// the master-assigned batch sequence per group in Points: the worker
// skips any group slice whose sequence it has already applied, so
// delivering the same AppendArgs twice (a retry after an ambiguous
// failure, a re-queue replay) ingests its points exactly once. A nil
// Seqs (or a group mapped to 0) requests the legacy at-least-once
// behavior.
type AppendArgs struct {
	Points []core.DataPoint
	Seqs   map[core.Gid]uint64
}

// IngestStateReply reports a worker's per-group applied batch
// sequences. A master fetches it when (re)connecting so the sequences
// it assigns continue above everything the worker already ingested —
// without it, a restarted master would reuse low sequences and the
// worker would silently drop its fresh batches as duplicates.
type IngestStateReply struct {
	Applied map[core.Gid]uint64
}

// StreamQueryArgs carries a scatter's SQL plus the master's configured
// chunk bound. Every worker parses and compiles the SQL against its
// replicated metadata, as the paper's master sends rewritten queries
// to each worker, then splits its partial result into chunks of
// roughly ChunkBytes and streams them as chunk frames, so the master's
// per-worker memory is one chunk instead of the whole reply.
// ChunkBytes 0 selects the worker's default.
type StreamQueryArgs struct {
	SQL        string
	ChunkBytes int64
}

// StatsReply mirrors modelardb.Stats over the transport.
type StatsReply struct {
	Stats modelardb.Stats
}

// SnapshotReply carries a worker's full metrics-registry snapshot. The
// master folds worker snapshots key-wise (obs.MergeSnapshots), so a
// metric a worker adds shows up in cluster-wide statistics without any
// reply-struct change.
type SnapshotReply struct {
	Snap map[string]float64
}

// dispatch runs one call under its per-call context and returns the
// gob-encoded reply.
func (s *Server) dispatch(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case "Append":
		// Ingest through the group-sharded batch path, so one call takes
		// each destination group's lock once. AppendBatchSeq checks ctx
		// between groups and deduplicates re-delivered group slices by
		// their master-assigned sequence.
		args := &AppendArgs{}
		if err := decodeBody(body, args); err != nil {
			return nil, err
		}
		return nil, s.db.AppendBatchSeq(ctx, args.Points, args.Seqs)
	case "IngestState":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return encodeBody(&IngestStateReply{Applied: s.db.AppliedSeqs()})
	case "Flush":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, s.db.Flush()
	case "Stats":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The server's RPC gauges live in the DB's registry, so the
		// snapshot-backed Stats already carries the in-flight stream count.
		st, err := s.db.Stats()
		if err != nil {
			return nil, err
		}
		return encodeBody(&StatsReply{Stats: st})
	case "Snapshot":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return encodeBody(&SnapshotReply{Snap: s.db.Snapshot()})
	default:
		return nil, fmt.Errorf("cluster: unknown method %q", method)
	}
}

// dispatchStream runs the streaming scatter method: the partial result
// leaves the worker as chunk frames while the scan is still running,
// interleaved with other calls' responses under wmu. connCtx is the
// connection's context — a chunk write blocked on a dead master is
// poisoned with a write deadline when it fires, so the serve loop's
// drain cannot deadlock behind a full send buffer. The caller writes
// the terminal response frame (carrying any error returned here).
func (s *Server) dispatchStream(ctx, connCtx context.Context, f *frame, conn net.Conn, wmu *sync.Mutex) error {
	args := &StreamQueryArgs{}
	if err := decodeBody(f.Body, args); err != nil {
		return err
	}
	q, err := sqlparse.Parse(args.SQL)
	if err != nil {
		return err
	}
	s.met.Streams.Add(1)
	defer s.met.Streams.Add(-1)
	var seq uint64
	// Chunk frames carry the typed-vector wire format directly — no gob
	// interface cells — and one encode buffer serves the whole stream.
	// The chunk (and its pooled batch) is only valid during this emit
	// call, so it is encoded before returning; writeFrame below copies
	// the body into its own pooled frame buffer.
	var encBuf []byte
	return s.db.Engine().ExecutePartialChunks(ctx, q, int(args.ChunkBytes), func(part *query.PartialResult) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		encBuf = query.EncodePartial(encBuf[:0], part)
		s.met.StreamChunks.Inc()
		s.met.StreamBytes.Add(int64(len(encBuf)))
		cf := &frame{Kind: frameChunk, ID: f.ID, Seq: seq, Body: encBuf}
		seq++
		stop := context.AfterFunc(connCtx, func() { conn.SetWriteDeadline(time.Now()) })
		wmu.Lock()
		err = writeFrame(conn, cf)
		wmu.Unlock()
		if !stop() {
			conn.SetWriteDeadline(time.Time{})
			if err == nil {
				err = connCtx.Err()
			}
		}
		return err
	})
}

// ServeConn serves one master connection until it closes. Requests
// dispatch concurrently, each under a context cancelled by a Cancel
// frame for its call ID, by the connection going away, or by ctx.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wmu   sync.Mutex // serializes response writes
		mu    sync.Mutex // guards calls
		calls = map[uint64]context.CancelFunc{}
		wg    sync.WaitGroup
	)
	br := bufio.NewReader(conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			break
		}
		switch f.Kind {
		case frameRequest:
			callCtx, callCancel := context.WithCancel(cctx)
			mu.Lock()
			calls[f.ID] = callCancel
			mu.Unlock()
			s.met.InFlight.Add(1)
			wg.Add(1)
			go func(f *frame) {
				defer wg.Done()
				t0 := time.Now()
				var body []byte
				var err error
				if f.Method == "ExecutePartialStream" {
					// Streaming calls write their own chunk frames; only the
					// terminal response goes through the shared path below.
					err = s.dispatchStream(callCtx, cctx, f, conn, &wmu)
				} else {
					body, err = s.dispatch(callCtx, f.Method, f.Body)
				}
				if h := s.met.Calls[f.Method]; h != nil {
					h.ObserveSince(t0)
				}
				mu.Lock()
				delete(calls, f.ID)
				mu.Unlock()
				callCancel()
				resp := &frame{Kind: frameResponse, ID: f.ID, Final: true, Body: body}
				if err != nil {
					resp.Err = err.Error()
				}
				wmu.Lock()
				// A write failure means the connection died; the read loop
				// notices and cancels the remaining calls.
				_ = writeFrame(conn, resp)
				wmu.Unlock()
				s.met.InFlight.Add(-1)
			}(f)
		case frameCancel:
			mu.Lock()
			if cancelCall, ok := calls[f.ID]; ok {
				cancelCall()
			}
			mu.Unlock()
		}
	}
	// Connection gone: a vanished master is a cancellation of every call
	// it had in flight. Wait the dispatches out so the scans drain.
	cancel()
	wg.Wait()
}

// Serve accepts master connections on ln and serves them until the
// listener closes. It is the compatibility wrapper over the context-
// aware form.
func Serve(db *modelardb.DB, ln net.Listener) error {
	return NewServer(db).Serve(context.Background(), ln)
}

// Serve accepts and serves connections until the listener closes;
// ctx bounds every call of every connection.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(ctx, conn)
	}
}

// Client is the master side of a transport cluster: it owns the
// metadata (via a local, storage-less DB open of the same config),
// validates queries before any network traffic, routes ingestion by
// group and scatters queries fail-fast — the first worker error
// cancels the remaining calls, including the workers' in-flight scans.
//
// Ingestion through the client is exactly-once: every sealed batch
// carries a per-group monotonic sequence assigned exactly once, the
// worker deduplicates re-deliveries by sequence, and the counters are
// seeded from the workers' durable applied tables at dial time — so
// neither the re-queue path, nor the reconnect retry loop, nor a
// master restart can duplicate an acknowledged point.
type Client struct {
	meta *modelardb.DB
	// met holds the master-side RPC instruments (per-method latency,
	// retries, reconnects), registered into the metadata DB's registry
	// so the master's own /metrics carries them.
	met *obs.RPCClientMetrics
	// addrs are the worker addresses, kept for reconnects.
	addrs  []string
	assign map[modelardb.Gid]int
	// base bounds the client's lifetime: every call context is combined
	// with it, so cancelling it aborts all in-flight RPCs at once.
	base context.Context

	mu sync.Mutex
	// workers holds one connection per worker, guarded by mu so a
	// reconnect can swap a dead connection under concurrent callers.
	workers []*wireConn
	// seq assigns batch sequences and queues sealed batches; open (and
	// the aligned openGids) buffer points until BatchSize seals them.
	seq      *sequencer
	open     [][]core.DataPoint
	openGids [][]modelardb.Gid
	// BatchSize is the number of points buffered per worker before an
	// Append call is issued (akin to the paper's micro-batches).
	BatchSize int
	// CallTimeout bounds each individual call (Config.RPCTimeout); 0
	// means calls are bounded only by their context.
	CallTimeout time.Duration
	// RetryBudget bounds the reconnect retry loop per call
	// (Config.RetryBudget); 0 means one immediate reconnect-and-retry.
	RetryBudget time.Duration
	// StreamChunkBytes bounds one streamed partial-result chunk
	// (Config.StreamChunkBytes); 0 selects the workers' default.
	StreamChunkBytes int64
}

// Dial connects the master to worker addresses. cfg must be the same
// configuration the workers were opened with.
func Dial(cfg modelardb.Config, addrs []string) (*Client, error) {
	return DialContext(context.Background(), cfg, addrs)
}

// DialContext connects the master to worker addresses; ctx bounds both
// the dialing and the client's lifetime — cancelling it aborts every
// in-flight call issued through the client.
func DialContext(ctx context.Context, cfg modelardb.Config, addrs []string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	// The master's replica is metadata-only: no store, and no WAL — a
	// WALDir in the shared worker config must not be opened (or
	// journaled into) by the master.
	cfg.Path = ""
	cfg.WALDir = ""
	meta, err := modelardb.Open(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{
		meta:             meta,
		met:              obs.NewRPCClientMetrics(meta.Metrics(), serverMethods),
		addrs:            addrs,
		assign:           AssignGroups(meta, len(addrs)),
		base:             ctx,
		seq:              newSequencer(len(addrs)),
		open:             make([][]core.DataPoint, len(addrs)),
		openGids:         make([][]modelardb.Gid, len(addrs)),
		BatchSize:        1024,
		CallTimeout:      cfg.RPCTimeout,
		RetryBudget:      cfg.RetryBudget,
		StreamChunkBytes: cfg.StreamChunkBytes,
	}
	var d net.Dialer
	for _, addr := range addrs {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		c.workers = append(c.workers, newWireConn(conn))
	}
	// Seed the sequence counters from each worker's durable applied
	// table: a master that restarts (or a standby taking over) must
	// assign sequences above everything already ingested, or the
	// workers would drop its fresh batches as duplicates.
	for w := range addrs {
		var reply IngestStateReply
		if err := c.call(ctx, w, "IngestState", nil, &reply); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: ingest state %s: %w", addrs[w], err)
		}
		c.seq.seed(reply.Applied)
	}
	return c, nil
}

// conn returns worker w's current connection.
func (c *Client) conn(w int) *wireConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[w]
}

// call issues one worker call under the client's lifetime context and
// per-call timeout, with one bounded reconnect-and-retry when the
// worker's connection is dead (callRetrying).
func (c *Client) call(ctx context.Context, w int, method string, args, reply any) error {
	ctx, cancel := mergeContexts(ctx, c.base)
	defer cancel()
	t0 := time.Now()
	err := c.callRetrying(ctx, w, method, args, reply)
	c.observeCall(method, t0, err)
	return err
}

// observeCall records one finished call — retries included — against
// the master-side instruments.
func (c *Client) observeCall(method string, t0 time.Time, err error) {
	if h := c.met.Calls[method]; h != nil {
		h.ObserveSince(t0)
	}
	if err != nil {
		c.met.Errors.Inc()
	}
}

// callRetrying issues one call on worker w's connection; ctx must
// already include the client's lifetime. A call failing with
// ErrConnectionLost — the connection died before or during it — is
// retried on a freshly dialed connection: once immediately when
// RetryBudget is zero, otherwise in a loop with exponential backoff
// and jitter (retryBackoff) until the budget is spent, so a worker
// outage shorter than the budget is survived without the caller ever
// seeing an error.
//
// The retries cannot duplicate data: a connection that died after
// delivering an Append may have executed it, but the batch's sequence
// numbers make the worker skip the replay (AppendArgs.Seqs). Worker
// application errors and context cancellations are returned as-is,
// never retried.
func (c *Client) callRetrying(ctx context.Context, w int, method string, args, reply any) error {
	conn := c.conn(w)
	err := c.timeoutCall(ctx, conn, method, args, reply)
	if err == nil || !errors.Is(err, ErrConnectionLost) || ctx.Err() != nil {
		return err
	}
	var deadline time.Time
	if c.RetryBudget > 0 {
		deadline = time.Now().Add(c.RetryBudget)
	}
	for attempt := 0; ; attempt++ {
		next, rerr := c.redial(ctx, w, conn)
		if rerr == nil {
			conn = next
			c.met.Retries.Inc()
			err = c.timeoutCall(ctx, conn, method, args, reply)
			if err == nil || !errors.Is(err, ErrConnectionLost) || ctx.Err() != nil {
				return err
			}
		}
		// rerr != nil keeps err: surface the last call failure, not the
		// dial's.
		if deadline.IsZero() {
			return err // RetryBudget 0: the single reconnect was it
		}
		delay := retryBackoff(attempt)
		if time.Now().Add(delay).After(deadline) {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
	}
}

// redial replaces worker w's dead connection with a fresh dial. When a
// concurrent caller already swapped it, that connection is used
// instead — at most one reconnect happens per failure.
func (c *Client) redial(ctx context.Context, w int, old *wireConn) (*wireConn, error) {
	c.mu.Lock()
	cur := c.workers[w]
	c.mu.Unlock()
	if cur != old {
		return cur, nil
	}
	// The reconnect obeys the same per-call bound as the calls it
	// serves: an unreachable worker (dropped SYNs) must fail the retry
	// within CallTimeout, not the OS connect timeout.
	if c.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.CallTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addrs[w])
	if err != nil {
		return nil, err
	}
	nc := newWireConn(conn)
	c.mu.Lock()
	if c.workers[w] != old {
		cur := c.workers[w]
		c.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	c.workers[w] = nc
	c.mu.Unlock()
	c.met.Reconnects.Inc()
	old.Close()
	return nc, nil
}

// timeoutCall applies only the per-call deadline; the caller has
// already combined ctx with the client's lifetime (the scatter merges
// once for all workers, so per-call merging again would be redundant).
func (c *Client) timeoutCall(ctx context.Context, w *wireConn, method string, args, reply any) error {
	if c.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.CallTimeout)
		defer cancel()
	}
	return w.Call(ctx, method, args, reply)
}

// callStreamRetrying is callRetrying's streaming counterpart, with one
// crucial restriction: a connection loss is only retried while no
// chunk has been consumed yet. Once onChunk ran, the caller's
// accumulator holds part of the old attempt's stream, and replaying
// from scratch would double-merge it — so a mid-stream loss surfaces
// as an error and the query fails as a whole (queries are read-only;
// re-running one is always safe for the caller).
func (c *Client) callStreamRetrying(ctx context.Context, w int, method string, args any, onChunk func([]byte) error) (err error) {
	t0 := time.Now()
	defer func() { c.observeCall(method, t0, err) }()
	gotChunk := false
	wrapped := func(body []byte) error {
		gotChunk = true
		return onChunk(body)
	}
	conn := c.conn(w)
	err = c.timeoutCallStream(ctx, conn, method, args, wrapped)
	if err == nil || gotChunk || !errors.Is(err, ErrConnectionLost) || ctx.Err() != nil {
		return err
	}
	var deadline time.Time
	if c.RetryBudget > 0 {
		deadline = time.Now().Add(c.RetryBudget)
	}
	for attempt := 0; ; attempt++ {
		next, rerr := c.redial(ctx, w, conn)
		if rerr == nil {
			conn = next
			c.met.Retries.Inc()
			err = c.timeoutCallStream(ctx, conn, method, args, wrapped)
			if err == nil || gotChunk || !errors.Is(err, ErrConnectionLost) || ctx.Err() != nil {
				return err
			}
		}
		if deadline.IsZero() {
			return err
		}
		delay := retryBackoff(attempt)
		if time.Now().Add(delay).After(deadline) {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
	}
}

// timeoutCallStream applies the per-call deadline to a streaming call.
func (c *Client) timeoutCallStream(ctx context.Context, w *wireConn, method string, args any, onChunk func([]byte) error) error {
	if c.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.CallTimeout)
		defer cancel()
	}
	return w.CallStream(ctx, method, args, onChunk)
}

// Append buffers a data point and sends a batch when full. A failed
// send never loses accepted points: the sealed batch stays at the head
// of the worker's queue and is retried — with its original sequence
// numbers, so the worker deduplicates any replay — by the next Append
// or Flush.
func (c *Client) Append(ctx context.Context, tid modelardb.Tid, ts int64, value float32) error {
	gid, err := c.meta.GroupOf(tid)
	if err != nil {
		return err
	}
	w := c.assign[gid]
	c.mu.Lock()
	c.open[w] = append(c.open[w], core.DataPoint{Tid: tid, TS: ts, Value: value})
	c.openGids[w] = append(c.openGids[w], gid)
	if len(c.open[w]) < c.BatchSize {
		c.mu.Unlock()
		return nil
	}
	c.sealLocked(w)
	c.mu.Unlock()
	return c.drain(ctx, w)
}

// sealLocked hands worker w's open buffer to the sequencer, which
// stamps every group in it with a sequence exactly once — a batch
// that later fails is retried with those same sequences, never fresh
// ones. The caller holds c.mu, which orders seals of one worker. New
// points arriving after the seal go into the next batch — they are
// never merged into a sealed one.
func (c *Client) sealLocked(w int) {
	c.seq.seal(w, c.open[w], c.openGids[w])
	c.open[w] = nil
	c.openGids[w] = nil
}

// drain sends worker w's queued batches in sequence order; a failed
// batch stays at the queue head for the next Append or Flush to retry.
func (c *Client) drain(ctx context.Context, w int) error {
	return c.seq.drain(ctx, w, func(ctx context.Context, args *AppendArgs) error {
		return c.call(ctx, w, "Append", args, nil)
	})
}

// Flush seals the open buffers, drains every worker's batch queue
// and, if every send succeeded, flushes every worker. Failed batches
// stay queued with their sequences, so a transient worker failure
// loses nothing and the eventual retry cannot double-ingest.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	for w := range c.open {
		c.sealLocked(w)
	}
	n := len(c.workers)
	c.mu.Unlock()
	var firstErr error
	for w := 0; w < n; w++ {
		// Keep draining the remaining workers even after a failure so
		// one dead worker does not strand the others' batches.
		if err := c.drain(ctx, w); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for w := range c.addrs {
		if err := c.call(ctx, w, "Flush", nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// Query parses and validates the query on the master — a parse or
// semantic error costs no network traffic — then scatters it to all
// workers in parallel as streaming calls and merges their partial
// results chunk by chunk as they arrive: the master never buffers a
// worker's whole reply, so its peak memory per worker is one chunk
// (StreamChunkBytes) plus the merged accumulator. The scatter is
// fail-fast: the first worker error cancels the remaining calls, and
// Cancel frames abort the other workers' in-flight scans and streams.
// Cancelling ctx does the same from the caller's side.
func (c *Client) Query(ctx context.Context, sql string) (*modelardb.Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	// The master's metadata replica compiles the same plan the workers
	// would, so every per-worker compile error is caught here once
	// instead of N times after a full scatter.
	if err := c.meta.Engine().Validate(q); err != nil {
		return nil, err
	}
	ctx, cancel := mergeContexts(ctx, c.base)
	defer cancel()
	// One accumulator per worker, finalized in worker order: folding a
	// worker's chunks in arrival order rebuilds exactly the partial the
	// buffered path would have shipped (chunks are scan-ordered row
	// batches or group-disjoint states — see query.MergePartial), so
	// streaming changes memory behavior, never results.
	accs := make([]*query.PartialResult, len(c.addrs))
	errs := make([]error, len(c.addrs))
	var wg sync.WaitGroup
	for i := range c.addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := &query.PartialResult{}
			// One decode target per stream: DecodePartial reuses its
			// pooled batch across the stream's chunks, so decoding N
			// chunks costs one batch, not N.
			part := &query.PartialResult{}
			args := &StreamQueryArgs{SQL: sql, ChunkBytes: c.StreamChunkBytes}
			errs[i] = c.callStreamRetrying(ctx, i, "ExecutePartialStream", args, func(body []byte) error {
				if err := query.DecodePartial(body, part); err != nil {
					return err
				}
				query.MergePartial(acc, part)
				return nil
			})
			part.ReleaseBatch()
			if errs[i] != nil {
				cancel() // fail fast: abort the sibling calls and scans
			} else {
				accs[i] = acc
			}
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	res, err := c.meta.Engine().Finalize(q, accs)
	for _, acc := range accs {
		acc.ReleaseBatch()
	}
	return res, err
}

// Stats aggregates every worker's statistics as a typed view over the
// merged cluster snapshot (Snapshot); the error result reports a
// failed worker fetch.
func (c *Client) Stats(ctx context.Context) (modelardb.Stats, error) {
	snap, err := c.Snapshot(ctx)
	if err != nil {
		return modelardb.Stats{}, err
	}
	return modelardb.StatsFromSnapshot(snap), nil
}

// Snapshot fetches every worker's metrics-registry snapshot and folds
// them into one cluster-wide snapshot: values sum key-wise, the
// replicated catalog gauges are de-duplicated, and the master's own
// send-queue depth rides along as MetricQueuedBatches — so a metric a
// worker adds appears in cluster statistics without per-field wiring.
func (c *Client) Snapshot(ctx context.Context) (map[string]float64, error) {
	snaps := make([]map[string]float64, 0, len(c.addrs))
	for i := range c.addrs {
		var reply SnapshotReply
		if err := c.call(ctx, i, "Snapshot", nil, &reply); err != nil {
			return nil, err
		}
		snaps = append(snaps, reply.Snap)
	}
	total := mergeWorkerSnapshots(snaps)
	var queued int64
	for _, depth := range c.seq.depths() {
		queued += int64(depth)
	}
	total[modelardb.MetricQueuedBatches] = float64(queued)
	return total, nil
}

// Metrics exposes the master's own registry (per-method RPC latency,
// retries, reconnects, plus the metadata replica's instruments).
func (c *Client) Metrics() *obs.Registry { return c.meta.Metrics() }

// mergeWorkerSnapshots folds per-worker registry snapshots into one
// cluster-wide snapshot. Values sum key-wise except the catalog
// gauges: every worker replicates the full metadata, so series and
// group counts come from the first worker instead of being multiplied
// by the cluster size.
func mergeWorkerSnapshots(snaps []map[string]float64) map[string]float64 {
	total := map[string]float64{}
	for _, s := range snaps {
		obs.MergeSnapshots(total, s)
	}
	if len(snaps) > 0 {
		total[modelardb.MetricSeries] = snaps[0][modelardb.MetricSeries]
		total[modelardb.MetricGroups] = snaps[0][modelardb.MetricGroups]
	}
	return total
}

// AppendContext buffers a data point and sends a batch when full.
//
// Deprecated: Append is context-first now; AppendContext remains as a
// thin wrapper for v1 callers and will be removed in a future release.
func (c *Client) AppendContext(ctx context.Context, tid modelardb.Tid, ts int64, value float32) error {
	return c.Append(ctx, tid, ts, value)
}

// FlushContext drains batches and flushes every worker.
//
// Deprecated: Flush is context-first now; FlushContext remains as a
// thin wrapper for v1 callers and will be removed in a future release.
func (c *Client) FlushContext(ctx context.Context) error {
	return c.Flush(ctx)
}

// QueryContext scatters the query to all workers and merges the
// streamed partials.
//
// Deprecated: Query is context-first now; QueryContext remains as a
// thin wrapper for v1 callers and will be removed in a future release.
func (c *Client) QueryContext(ctx context.Context, sql string) (*modelardb.Result, error) {
	return c.Query(ctx, sql)
}

// StatsContext aggregates every worker's statistics.
//
// Deprecated: Stats is context-first now; StatsContext remains as a
// thin wrapper for v1 callers and will be removed in a future release.
func (c *Client) StatsContext(ctx context.Context) (modelardb.Stats, error) {
	return c.Stats(ctx)
}

// firstError picks the scatter's deterministic error: the lowest-
// indexed worker error that is not the fail-fast abort's own
// cancellation, falling back to the lowest-indexed error (all workers
// report context.Canceled when the caller itself cancelled).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close closes worker connections and the master's metadata DB.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := make([]*wireConn, len(c.workers))
	copy(conns, c.workers)
	c.mu.Unlock()
	for _, w := range conns {
		if w != nil {
			w.Close()
		}
	}
	return c.meta.Close()
}
