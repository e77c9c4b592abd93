// Package cluster implements the master/worker architecture of §3.1:
// the master holds the catalog (the series partitioned into groups),
// assigns every group to the worker with the most available capacity
// (preventing data skew), routes ingestion to the owning worker, and
// executes queries by scattering the rewritten query to the workers
// and merging their mergeable aggregate states (Algorithm 5: iterate
// on workers, merge and finalize on the master). Only the workers
// ingest and store. Because a group's series are always co-located,
// queries never shuffle data between workers — the property behind
// the paper's linear scale-out (Fig. 20).
//
// There is one master, Client, over two kinds of worker: NewLocal runs
// the workers in this process (tests, examples and the scale-out
// simulation), and Dial connects to workers that a Server exposes over
// a context-aware framed transport — see docs/wire-protocol.md for the
// frame and chunk-codec specification. Routing, the exactly-once
// sequencer, the fail-fast scatter, the merge and the finalize are the
// same code for both.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
)

// Client is the cluster master. It holds the workers' catalog, built
// from their config, and a planner over it with no store: it routes
// ingestion by group, validates queries before any worker runs,
// scatters them fail-fast — the first worker error cancels the
// remaining workers' in-flight scans — and merges and finalizes the
// workers' partials. It ingests and stores nothing itself.
//
// Ingestion through the client is exactly-once: every sealed batch
// carries a per-group monotonic sequence assigned exactly once, the
// worker deduplicates re-deliveries by sequence, and the counters are
// seeded from the workers' applied tables when the client is built —
// so neither the re-queue path, nor a reconnect retry, nor a master
// restart can duplicate an acknowledged point.
type Client struct {
	cat *modelardb.Catalog
	// planner compiles, checks and finalizes queries; it cannot scan.
	planner *query.Engine
	// metrics holds the master's own instruments: the RPC client
	// latency, retries and reconnects of TCP workers.
	metrics *obs.Registry
	workers []worker
	// routes holds each series' group and the group's worker, indexed
	// by Tid-1. It is built once with the client and only read after, so
	// routing a point takes no lock.
	routes []route
	// base bounds the client's lifetime: every call context is combined
	// with it, so cancelling it aborts all in-flight calls at once.
	// Close cancels it.
	base   context.Context
	cancel context.CancelFunc
	// senders counts the running per-worker senders (send).
	senders sync.WaitGroup
	// chunkBytes bounds one streamed partial-result chunk
	// (Config.StreamChunkBytes); 0 selects the workers' default.
	chunkBytes int64
	// closeWait bounds how long Close waits for the sealed batches
	// (Config.RPCTimeout, else defaultCloseWait).
	closeWait time.Duration

	// seq assigns batch sequences and queues sealed batches for the
	// senders; open (and the aligned openGids) buffer points until
	// batchSize seals them. mu guards the buffers and orders the seals of
	// one worker.
	mu       sync.Mutex
	seq      *sequencer
	open     [][]core.DataPoint
	openGids [][]modelardb.Gid
	// batchSize is the number of points buffered per worker before a
	// batch is sealed and sent (akin to the paper's micro-batches).
	batchSize int
}

// route is where one series' points go: its group, and the worker
// that owns the group.
type route struct {
	gid modelardb.Gid
	w   int
}

// NewLocal creates a master over n in-process workers from one
// database config. Every worker opens the configuration the master
// builds its catalog from (the partitioning is deterministic), so they
// share Tids, Gids and dimension metadata like the paper's metadata
// cache replicated to every node.
//
// ctx bounds the cluster's lifetime, as DialContext's does.
//
// Each worker runs the same parallel segment-scan executor as a
// single-node database; since scatter queries execute on all workers
// simultaneously, an unset QueryParallelism is divided across the
// in-process workers so the cluster as a whole uses the machine's
// cores without oversubscribing them.
func NewLocal(ctx context.Context, cfg modelardb.Config, n int) (*Client, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker")
	}
	if cfg.Path != "" {
		return nil, fmt.Errorf("cluster: local cluster workers are memory-backed")
	}
	// Like Path, a WAL directory cannot be shared: n workers journaling
	// into the same shard files would corrupt each other's records.
	cfg.WALDir = ""
	if cfg.QueryParallelism == 0 {
		cfg.QueryParallelism = max(1, runtime.GOMAXPROCS(0)/n)
	}
	c, err := newClient(ctx, cfg, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		db, err := modelardb.Open(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, &localWorker{db: db})
	}
	return c.seed()
}

// Dial connects a master to workers served at addrs. cfg must be the
// configuration the workers were opened with.
func Dial(cfg modelardb.Config, addrs []string) (*Client, error) {
	return DialContext(context.Background(), cfg, addrs)
}

// DialContext is Dial with a context that bounds both the dialing and
// the client's lifetime: cancelling it aborts every in-flight call.
func DialContext(ctx context.Context, cfg modelardb.Config, addrs []string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	c, err := newClient(ctx, cfg, len(addrs))
	if err != nil {
		return nil, err
	}
	met := obs.NewRPCClientMetrics(c.metrics, serverMethods)
	var d net.Dialer
	for _, addr := range addrs {
		conn, err := d.DialContext(c.base, "tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		c.workers = append(c.workers, &remoteWorker{
			addr:        addr,
			met:         met,
			callTimeout: cfg.RPCTimeout,
			retryBudget: cfg.RetryBudget,
			conn:        newWireConn(conn),
		})
	}
	return c.seed()
}

// newClient builds the master's catalog from the workers' config, its
// planner, and its routing and sequencing state for n workers; the
// caller adds the workers and seeds. The catalog partitions cfg.Series
// as every worker that has no persisted metadata does, and the master
// opens no file: a Path or WALDir in the config is the workers'.
func newClient(ctx context.Context, cfg modelardb.Config, n int) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cat, err := modelardb.NewCatalog(cfg)
	if err != nil {
		return nil, err
	}
	assign := AssignGroups(cat, n)
	routes := make([]route, cat.NumSeries())
	for i := range routes {
		gid, err := cat.GroupOf(modelardb.Tid(i + 1))
		if err != nil {
			return nil, err
		}
		routes[i] = route{gid: gid, w: assign[gid]}
	}
	base, cancel := context.WithCancel(ctx)
	closeWait := cfg.RPCTimeout
	if closeWait <= 0 {
		closeWait = defaultCloseWait
	}
	return &Client{
		cat:        cat,
		planner:    cat.Planner(),
		metrics:    obs.NewRegistry(),
		routes:     routes,
		base:       base,
		cancel:     cancel,
		chunkBytes: cfg.StreamChunkBytes,
		closeWait:  closeWait,
		seq:        newSequencer(n),
		open:       make([][]core.DataPoint, n),
		openGids:   make([][]modelardb.Gid, n),
		batchSize:  1024,
	}, nil
}

// seed floors the sequence counters at each worker's applied table: a
// master that restarts (or a standby taking over) must assign
// sequences above everything already ingested, or the workers would
// drop its fresh batches as duplicates. It then starts one sender per
// worker. On failure the client is closed.
func (c *Client) seed() (*Client, error) {
	for _, w := range c.workers {
		applied, err := w.applied(c.base)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.seq.seed(applied)
	}
	for w := range c.workers {
		c.senders.Add(1)
		go c.send(w)
	}
	return c, nil
}

// send is worker w's sender, the only caller of its apply. It sends
// the worker's sealed batches in sequence order, one call at a time:
// a Server runs every request on its own goroutine, so two appends in
// flight to one worker could be applied out of order, and the worker's
// dedup high-water mark would then drop live points. The sends run
// under the client's base context, each bounded by Config.RPCTimeout.
// After a failed send the sender idles until the next seal retries it;
// it returns when the client closes.
func (c *Client) send(w int) {
	defer c.senders.Done()
	wake := c.seq.lanes[w].wake
	for {
		select {
		case <-wake:
		case <-c.base.Done():
			return
		}
		for args := c.seq.head(w); args != nil; args = c.seq.head(w) {
			c.seq.ack(w, c.workers[w].apply(c.base, args))
		}
	}
}

// AssignGroups assigns every group of the catalog to one of n
// workers, always picking the least-loaded worker measured in assigned
// series (§3.1: "each group is assigned to the worker with the most
// available resources", preventing data skew).
func AssignGroups(cat *modelardb.Catalog, n int) map[modelardb.Gid]int {
	gids := cat.Groups()
	// Largest groups first so the greedy assignment balances well.
	sort.Slice(gids, func(i, j int) bool {
		gi, gj := len(cat.GroupMembers(gids[i])), len(cat.GroupMembers(gids[j]))
		if gi != gj {
			return gi > gj
		}
		return gids[i] < gids[j]
	})
	assign := make(map[modelardb.Gid]int, len(gids))
	load := make([]int, n)
	for _, gid := range gids {
		best := 0
		for w := 1; w < n; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		assign[gid] = best
		load[best] += len(cat.GroupMembers(gid))
	}
	return assign
}

// NumWorkers returns the cluster size.
func (c *Client) NumWorkers() int { return len(c.workers) }

// WorkerOf returns the worker index owning a series' group.
func (c *Client) WorkerOf(tid modelardb.Tid) (int, error) {
	r, err := c.route(tid)
	return r.w, err
}

// route returns tid's route, or the catalog's unknown-Tid error.
func (c *Client) route(tid modelardb.Tid) (route, error) {
	if tid < 1 || int(tid) > len(c.routes) {
		return route{}, fmt.Errorf("%w: %d", core.ErrUnknownTid, tid)
	}
	return c.routes[tid-1], nil
}

// Append buffers a data point and seals the worker's batch when it is
// full. It does not wait for the worker: the worker's sender delivers
// the sealed batch while the caller fills the next one. Only when the
// worker has more than maxUnacked (4) sealed, unacknowledged batches
// does the sealing Append wait for an acknowledgement, honouring ctx;
// a cancelled wait leaves the batch queued, to be sent like any other.
//
// A failed send never loses accepted points: the sealed batch stays at
// the head of the worker's queue and is retried — with its original
// sequence numbers, so the worker deduplicates any replay — by the
// next Append that seals for that worker, or the next AppendBatch or
// Flush, which returns the retry's error.
func (c *Client) Append(ctx context.Context, tid modelardb.Tid, ts int64, value float32) error {
	r, err := c.route(tid)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.open[r.w] = append(c.open[r.w], core.DataPoint{Tid: tid, TS: ts, Value: value})
	c.openGids[r.w] = append(c.openGids[r.w], r.gid)
	if len(c.open[r.w]) < c.batchSize {
		c.mu.Unlock()
		return nil
	}
	n, retried := c.sealLocked(r.w)
	c.mu.Unlock()
	return c.await(ctx, r.w, max(n-min(n, maxUnacked), retried))
}

// AppendBatch routes a batch of data points to their owning workers,
// seals every worker's buffer — the points buffered by Append first,
// so each group's points keep their arrival order — and waits until
// every batch sealed so far is acknowledged. It is a barrier, like
// Flush. A point with an unknown Tid rejects the whole batch before
// anything is buffered. A failed send stays queued with its sequences
// like Append's, so the caller's retry cannot double-ingest; the
// other workers' batches are still awaited, and the first error in
// worker order is returned.
func (c *Client) AppendBatch(ctx context.Context, points []modelardb.DataPoint) error {
	for _, p := range points {
		if _, err := c.route(p.Tid); err != nil {
			return err
		}
	}
	last := make([]uint64, len(c.open))
	c.mu.Lock()
	for _, p := range points {
		r := c.routes[p.Tid-1]
		c.open[r.w] = append(c.open[r.w], p)
		c.openGids[r.w] = append(c.openGids[r.w], r.gid)
	}
	for w := range c.open {
		// The last batch is behind any retried one: waiting on it covers
		// both.
		last[w], _ = c.sealLocked(w)
	}
	c.mu.Unlock()
	var firstErr error
	for w, n := range last {
		if err := c.await(ctx, w, n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sealLocked hands worker w's open buffer to the sequencer, which
// stamps every group in it with a sequence exactly once — a batch
// that later fails is retried with those same sequences, never fresh
// ones — and returns sequencer.seal's batch numbers. The caller holds
// c.mu, which orders seals of one worker. The sealed slices belong to
// the queue until the worker acknowledges them, so the next batch gets
// fresh buffers: new points are never merged into a sealed batch.
func (c *Client) sealLocked(w int) (n, retried uint64) {
	n, retried = c.seq.seal(w, c.open[w], c.openGids[w])
	if len(c.open[w]) > 0 {
		c.open[w] = make([]core.DataPoint, 0, c.batchSize)
		c.openGids[w] = make([]modelardb.Gid, 0, c.batchSize)
	}
	return n, retried
}

// await waits until worker w has acknowledged its batch n (0: none).
// It returns the first send error it sees, or ctx's error, or the
// client's once it is closed: a closed client has no senders left.
func (c *Client) await(ctx context.Context, w int, n uint64) error {
	if err := c.base.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return c.seq.wait(ctx, c.base, w, n)
}

// Flush seals the open buffers, waits until every worker has
// acknowledged every batch sealed before it and, if every send
// succeeded, flushes every worker. Failed batches stay queued with
// their sequences, so a transient worker failure loses nothing and the
// eventual retry cannot double-ingest.
func (c *Client) Flush(ctx context.Context) error {
	if err := c.AppendBatch(ctx, nil); err != nil {
		return err
	}
	ctx, cancel := mergeContexts(ctx, c.base)
	defer cancel()
	for _, w := range c.workers {
		if err := w.flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Query scatters the query to all workers and merges their partial
// results on the master; see QueryWithStats.
func (c *Client) Query(ctx context.Context, sql string) (*modelardb.Result, error) {
	res, _, err := c.QueryWithStats(ctx, sql)
	return res, err
}

// QueryWithStats parses and validates the query on the master — a
// parse or semantic error reaches no worker — then scatters it to all
// workers in parallel and decodes their partial results chunk by chunk
// as they arrive: the master never buffers a worker's encoded reply, so
// its memory per worker is a few frame buffers plus the decoded rows or
// groups.
// It also reports each worker's execution time, which the scale-out
// experiment (Fig. 20) uses: with shuffle-free placement the cluster's
// latency is the slowest worker's latency.
//
// The scatter is fail-fast: the first worker error cancels the scatter
// context, aborting the sibling workers' in-flight scans. The returned
// error is deterministic — the lowest-indexed real error, never the
// fail-fast abort's own context.Canceled (unless the caller itself
// cancelled). Cancelling ctx (or the client's base context) aborts
// every worker's scan.
func (c *Client) QueryWithStats(ctx context.Context, sql string) (*modelardb.Result, []time.Duration, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	// The master's planner compiles the same plan the workers would, so
	// every per-worker compile error is caught here once instead of N
	// times after a full scatter; the plan then checks every chunk a
	// worker sends before it is merged.
	check, err := c.planner.PartialChecker(q)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := mergeContexts(ctx, c.base)
	defer cancel()
	// Every worker's chunks are kept as they arrive and finalized in
	// worker order, each worker's in its own order: a row chunk's
	// batch as it decoded, and a worker's aggregate chunks folded into
	// its first (query.MergePartial). That is exactly the partial a
	// single reply would have carried (chunks are scan-ordered row
	// batches or group-disjoint states), so streaming changes memory
	// behavior, never results. The master owns every kept batch and
	// releases each once the rows are boxed.
	args := &StreamQueryArgs{SQL: sql, ChunkBytes: c.chunkBytes}
	parts := make([][]*query.PartialResult, len(c.workers))
	times := make([]time.Duration, len(c.workers))
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			start := time.Now()
			errs[i] = w.partials(ctx, args, func(part *query.PartialResult) error {
				if err := check(part); err != nil {
					part.ReleaseBatch()
					return &WorkerError{Method: "ExecutePartialStream", Msg: err.Error()}
				}
				if own := parts[i]; part.IsAggregate && len(own) > 0 {
					query.MergePartial(own[0], part)
				} else {
					parts[i] = append(own, part)
				}
				return nil
			})
			times[i] = time.Since(start)
			if errs[i] != nil {
				cancel() // fail fast: abort the sibling workers' scans
			}
		}(i, w)
	}
	wg.Wait()
	all := slices.Concat(parts...)
	defer func() {
		for _, part := range all {
			part.ReleaseBatch()
		}
	}()
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	res, err := c.planner.Finalize(q, all)
	if err != nil {
		return nil, nil, err
	}
	return res, times, nil
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
	ctx, cancel := mergeContexts(ctx, c.base)
	defer cancel()
	snaps := make([]map[string]float64, 0, len(c.workers))
	for _, w := range c.workers {
		snap, err := w.snapshot(ctx)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, snap)
	}
	total := mergeWorkerSnapshots(snaps)
	total[modelardb.MetricQueuedBatches] = float64(c.seq.queued())
	return total, nil
}

// Metrics exposes the master's own registry: over TCP workers,
// per-method RPC latency, retries and reconnects. The workers' metrics
// are read through Snapshot.
func (c *Client) Metrics() *obs.Registry { return c.metrics }

// defaultCloseWait bounds Close's wait for the sealed batches when
// Config.RPCTimeout does not.
const defaultCloseWait = 2 * time.Second

// DroppedError is Close's report of accepted points that no worker
// acknowledged: their batches were still queued, or in flight, when
// the wait for them ended. A worker may hold the in-flight ones; a new
// client's seeding resumes above whatever the workers applied.
type DroppedError struct {
	Points int   // accepted points in unacknowledged batches
	Err    error // what ended the wait
}

func (e *DroppedError) Error() string {
	return fmt.Sprintf("cluster: close dropped %d accepted points: %v", e.Points, e.Err)
}

func (e *DroppedError) Unwrap() error { return e.Err }

// Close seals the points Append buffered and waits, within
// Config.RPCTimeout (defaultCloseWait when it is 0), until every
// worker has acknowledged every sealed batch. It then stops the
// senders, aborting their in-flight sends, and closes every worker. If
// the wait ended first, it returns a *DroppedError counting the points
// of the batches left unacknowledged.
func (c *Client) Close() error {
	waitErr := c.drain()
	c.cancel()
	c.senders.Wait()
	var first error
	if n := c.seq.queuedPoints(); n > 0 {
		first = &DroppedError{Points: n, Err: waitErr}
	}
	for _, w := range c.workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drain seals every worker's open buffer and waits, within closeWait,
// until every sealed batch is acknowledged. A worker's send error, the
// timeout or the client's end stops the wait for that worker; drain
// returns the first such error in worker order.
func (c *Client) drain() error {
	last := make([]uint64, len(c.open))
	c.mu.Lock()
	for w := range c.open {
		last[w], _ = c.sealLocked(w)
	}
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(c.base, c.closeWait)
	defer cancel()
	var first error
	for w, n := range last {
		if n == 0 {
			continue
		}
		if err := c.seq.wait(ctx, c.base, w, n); err != nil && first == nil {
			first = err
		}
	}
	return first
}

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

// mergeContexts derives a context that is cancelled when either parent
// is, so a call obeys both the caller's context and the client's
// lifetime context. The returned cancel must be called to release the
// linkage.
func mergeContexts(a, b context.Context) (context.Context, context.CancelFunc) {
	if a == nil {
		a = context.Background()
	}
	if b == nil || b == context.Background() || a == b {
		return context.WithCancel(a)
	}
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
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
