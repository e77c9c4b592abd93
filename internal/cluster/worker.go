package cluster

import (
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

// worker is what the master asks of one worker. localWorker runs it in
// this process; remoteWorker runs it on a Server across the framed
// transport. Everything else — routing, sequencing, scatter, merge and
// finalize — is the master's, and the same for both.
type worker interface {
	// apply ingests a sealed batch. A group slice whose sequence the
	// worker has already applied is skipped, so a redelivery is a no-op.
	apply(ctx context.Context, args *AppendArgs) error
	// applied reports the worker's per-group applied batch sequences.
	applied(ctx context.Context) (map[core.Gid]uint64, error)
	// flush turns the worker's buffered points into stored segments.
	flush(ctx context.Context) error
	// partials executes args.SQL and passes its partial result to emit
	// in scan-ordered chunks of about args.ChunkBytes. Each chunk is
	// handed over: emit owns it, and releases its row batch, if any,
	// with ReleaseBatch once done with the rows — also when it refuses
	// the chunk.
	partials(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error
	// snapshot returns the worker's metrics-registry snapshot.
	snapshot(ctx context.Context) (map[string]float64, error)
	Close() error
}

// localWorker is a worker database with its own store. It defines what
// a worker does per call: the master of an in-process cluster calls it
// directly, and a Server decodes each frame and calls it.
type localWorker struct {
	db *modelardb.DB
}

func (w *localWorker) apply(ctx context.Context, args *AppendArgs) error {
	// The group-sharded batch path takes each destination group's lock
	// once, checks ctx between groups and deduplicates re-delivered
	// group slices by their master-assigned sequence.
	return w.db.AppendBatchSeq(ctx, args.Points, args.Seqs)
}

func (w *localWorker) applied(ctx context.Context) (map[core.Gid]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.db.AppliedSeqs(), nil
}

func (w *localWorker) flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return w.db.Flush()
}

// chunks executes args.SQL and passes its partial result to emit in
// scan-ordered chunks of about args.ChunkBytes. A chunk is lent: it is
// valid only during its emit call, long enough for a Server to encode
// it into a frame.
func (w *localWorker) chunks(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error {
	q, err := sqlparse.Parse(args.SQL)
	if err != nil {
		return err
	}
	return w.db.Engine().ExecutePartialChunks(ctx, q, int(args.ChunkBytes), emit)
}

// partials hands each chunk over as a remote worker's decoded chunk
// is: a row chunk's lent batch is copied into a pooled batch, and an
// aggregate chunk's groups are built for it alone.
func (w *localWorker) partials(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error {
	return w.chunks(ctx, args, func(part *query.PartialResult) error {
		if part.Batch != nil {
			part = &query.PartialResult{Columns: part.Columns, Batch: part.Batch.Clone()}
		}
		return emit(part)
	})
}

func (w *localWorker) snapshot(ctx context.Context) (map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.db.Snapshot(), nil
}

func (w *localWorker) Close() error { return w.db.Close() }

// remoteWorker is a worker behind the framed transport: it owns the
// connection to one Server, redials it when it dies and decodes the
// streamed chunks.
type remoteWorker struct {
	addr string
	// met holds the master-side RPC instruments (per-method latency,
	// retries, reconnects), shared by all of a master's remote workers
	// and registered into its own registry.
	met *obs.RPCClientMetrics
	// callTimeout bounds each call and each redial (Config.RPCTimeout);
	// 0 means calls are bounded only by their context.
	callTimeout time.Duration
	// retryBudget bounds the reconnect retry loop per call
	// (Config.RetryBudget); 0 means one immediate reconnect-and-retry.
	retryBudget time.Duration

	mu sync.Mutex
	// conn is guarded by mu so a reconnect can swap a dead connection
	// under concurrent callers.
	conn *wireConn
}

func (w *remoteWorker) apply(ctx context.Context, args *AppendArgs) error {
	return w.call(ctx, "Append", args, nil, nil)
}

func (w *remoteWorker) applied(ctx context.Context) (map[core.Gid]uint64, error) {
	var reply IngestStateReply
	if err := w.call(ctx, "IngestState", nil, &reply, nil); err != nil {
		return nil, fmt.Errorf("cluster: ingest state %s: %w", w.addr, err)
	}
	return reply.Applied, nil
}

func (w *remoteWorker) flush(ctx context.Context) error {
	return w.call(ctx, "Flush", nil, nil, nil)
}

func (w *remoteWorker) snapshot(ctx context.Context) (map[string]float64, error) {
	var reply SnapshotReply
	err := w.call(ctx, "Snapshot", nil, &reply, nil)
	return reply.Snap, err
}

// partials streams the query's chunks from the worker and hands each
// over as it decodes: its batch comes from the query package's pool
// and is emit's to release. A chunk that does not decode is released
// here.
func (w *remoteWorker) partials(ctx context.Context, args *StreamQueryArgs, emit func(*query.PartialResult) error) error {
	return w.call(ctx, "ExecutePartialStream", args, nil, func(body []byte) error {
		part := &query.PartialResult{}
		if err := query.DecodePartial(body, part); err != nil {
			part.ReleaseBatch()
			return err
		}
		return emit(part)
	})
}

// call issues one call on the worker's connection (wireConn.Call) and
// records it — retries included — against the master's instruments.
//
// A call that loses its connection (ErrConnectionLost) is retried on a
// freshly dialed connection until its first chunk has reached the
// caller: once immediately when retryBudget is zero, otherwise in a
// loop with exponential backoff and jitter (retryBackoff) until the
// budget is spent, so a worker outage shorter than the budget is
// survived without the caller ever seeing an error. For a call without
// chunks that is every time. Once a chunk has reached onChunk, the
// caller holds part of the old attempt's reply, and replaying it from
// scratch would deliver that part twice — so a loss after it fails the
// call as a whole (a query is read-only; re-running one is always safe
// for the caller).
//
// The retries cannot duplicate data: a connection that died after
// delivering an Append may have executed it, but the batch's sequence
// numbers make the worker skip the replay (AppendArgs.Seqs). Worker
// application errors and context cancellations are returned as-is,
// never retried.
func (w *remoteWorker) call(ctx context.Context, method string, args, reply wireBody, onChunk func(body []byte) error) (err error) {
	t0 := time.Now()
	defer func() {
		if h := w.met.Calls[method]; h != nil {
			h.ObserveSince(t0)
		}
		if err != nil {
			w.met.Errors.Inc()
		}
	}()
	chunked := false // a chunk has reached onChunk
	if next := onChunk; next != nil {
		onChunk = func(body []byte) error {
			chunked = true
			return next(body)
		}
	}
	retry := func() bool {
		return errors.Is(err, ErrConnectionLost) && ctx.Err() == nil && !chunked
	}
	send := func(conn *wireConn) error {
		ctx, cancel := w.bounded(ctx)
		defer cancel()
		return conn.Call(ctx, method, args, reply, onChunk)
	}
	conn := w.current()
	if err = send(conn); !retry() {
		return err
	}
	var deadline time.Time
	if w.retryBudget > 0 {
		deadline = time.Now().Add(w.retryBudget)
	}
	for attempt := 0; ; attempt++ {
		// A failed redial keeps err: surface the last call failure, not
		// the dial's.
		if next, rerr := w.redial(ctx, conn); rerr == nil {
			conn = next
			w.met.Retries.Inc()
			if err = send(conn); !retry() {
				return err
			}
		}
		if deadline.IsZero() {
			return err // retryBudget 0: the single reconnect was it
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

// bounded applies the per-call bound to ctx.
func (w *remoteWorker) bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	if w.callTimeout > 0 {
		return context.WithTimeout(ctx, w.callTimeout)
	}
	return ctx, func() {}
}

// current returns the worker's current connection.
func (w *remoteWorker) current() *wireConn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

// redial replaces the dead connection old with a fresh dial. When a
// concurrent caller already swapped it, that connection is used
// instead — at most one reconnect happens per failure.
func (w *remoteWorker) redial(ctx context.Context, old *wireConn) (*wireConn, error) {
	if cur := w.current(); cur != old {
		return cur, nil
	}
	// The reconnect obeys the same per-call bound as the calls it
	// serves: an unreachable worker (dropped SYNs) must fail the retry
	// within callTimeout, not the OS connect timeout.
	ctx, cancel := w.bounded(ctx)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return nil, err
	}
	nc := newWireConn(conn)
	w.mu.Lock()
	if w.conn != old {
		cur := w.conn
		w.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	w.conn = nc
	w.mu.Unlock()
	w.met.Reconnects.Inc()
	old.Close()
	return nc, nil
}

// Close tears the connection down; pending calls fail via its reader.
// A connection that already died has nothing left to report, so the
// close error is dropped.
func (w *remoteWorker) Close() error {
	w.current().Close()
	return nil
}
