package query

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/storage"
)

// The chunked segment-scan executor: the store shards the filtered
// segment stream into chunks (storage.SegmentStore.ScanChunks), a pool
// of workers materializes and processes the chunks, and the per-chunk
// partial states merge in scan order. Every query shape runs through
// this one scan — the local pool and the cluster paths share one
// mergeable partial-aggregation contract (§6.2: iterate on workers,
// merge and finalize on the master — here the "workers" are goroutines
// instead of cluster nodes). A pool of one is the degenerate case: its
// worker is the calling goroutine, so no goroutine or channel exists.
//
// Load balancing is work stealing across groups: every worker pulls
// its next chunk from one shared job queue, so a worker that drew
// cheap chunks (a sparsely sampled group, a time window clipping most
// segments) keeps taking work from the stream while a worker stuck on
// an expensive chunk does not strand the chunks behind it. The store's
// adaptive sizing weights chunks by decode cost (stored bytes plus
// storage.PointWeight per covered sampling interval), so the stolen
// units are of roughly equal scan effort even when compression ratios
// differ wildly between groups.
//
// Determinism: chunks are numbered in scan order and their results are
// combined in that order. Chunk boundaries do not depend on the worker
// count, so every worker count — one included — runs the same chunks
// and merges the same partials in the same order: results are
// byte-identical across worker counts, floating-point sums included,
// and non-aggregate queries return rows in scan order.
//
// Cancellation: the context is checked between chunks (inside
// ScanChunks, and by every pool worker before it materializes a
// chunk), so a cancelled query, a closed cursor or a satisfied LIMIT
// stops within one chunk of work per goroutine, and the pool drains
// before scan returns.

// SetParallelism sets the scan worker count used by Execute,
// ExecuteQuery, QueryRows and ExecutePartialChunks: n == 1 runs one
// worker, in the caller's goroutine, n > 1 uses that many workers and
// n <= 0 restores the default, GOMAXPROCS. Results are identical for every n.
// Configure before serving queries.
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.par = n
}

// workers resolves the configured parallelism.
func (e *Engine) workers() int {
	if e.par > 0 {
		return e.par
	}
	return runtime.GOMAXPROCS(0)
}

// ErrNoStore is returned by every scan of an engine built without a
// segment store, such as a cluster master's planner, which compiles,
// checks and finalizes queries but holds no data.
var ErrNoStore = errors.New("query: engine has no segment store to scan")

// errScanAborted tells ScanChunks to stop early because a worker
// already failed; it never escapes to callers.
var errScanAborted = errors.New("query: parallel scan aborted")

// chunkJob is one numbered unit of scan work. enq is the enqueue
// timestamp feeding the pool queue-wait histogram; zero when the
// engine is unobserved.
type chunkJob struct {
	seq   int
	chunk storage.Chunk
	enq   time.Time
}

// chunkResult carries one chunk's partial state back to the collector.
type chunkResult struct {
	seq int
	val any
	err error
}

// scan runs fn over every chunk of the plan's filtered segment stream
// on the engine's workers and feeds the per-chunk results to consume
// in scan order, merging incrementally so only out-of-order results
// are retained (bounded by the pool, not the scan). Each goroutine
// holds one scanScratch for the whole scan and hands it to fn: with
// one worker that goroutine is the caller, which walks the chunks
// itself; with more, fn runs concurrently on pool workers and must
// only touch its own chunk's state. Callers pass fn as a method
// expression ((*Engine).selectChunk), which, unlike a method value,
// costs no allocation per query. consume always runs on the calling
// goroutine, and a non-nil error from it aborts the scan (the pool
// drains before scan returns).
func (e *Engine) scan(ctx context.Context, p *plan, fn func(*Engine, context.Context, *plan, *scanScratch, []*core.Segment) (any, error), consume func(any) error) error {
	if e.store == nil {
		return ErrNoStore
	}
	n := e.workers()
	if n == 1 {
		sc := getScratch()
		defer sc.release(p.trace)
		return e.store.ScanChunks(ctx, p.scanFilter(), e.chunk, func(c storage.Chunk) error {
			p.trace.Add(obs.Chunks, 1)
			segs, err := c.Segments(&sc.read)
			if err != nil {
				return err
			}
			val, err := fn(e, ctx, p, sc, segs)
			if err != nil {
				return err
			}
			return consume(val)
		})
	}
	jobs := make(chan chunkJob, n)
	results := make(chan chunkResult, n)
	done := make(chan struct{})
	prodErr := make(chan error, 1)
	queueWait := e.queueWaitHistogram()

	// Producer: enumerate chunks in scan order. ScanChunks only walks
	// the store's index (checking ctx between chunks); segment decoding
	// happens on the workers.
	go func() {
		seq := 0
		err := e.store.ScanChunks(ctx, p.scanFilter(), e.chunk, func(c storage.Chunk) error {
			job := chunkJob{seq: seq, chunk: c}
			if queueWait != nil {
				job.enq = time.Now()
			}
			select {
			case jobs <- job:
				p.trace.Add(obs.Chunks, 1)
				seq++
				return nil
			case <-done:
				return errScanAborted
			}
		})
		if errors.Is(err, errScanAborted) {
			err = nil
		}
		prodErr <- err
		close(jobs)
	}()

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getScratch()
			defer sc.release(p.trace)
			for job := range jobs {
				select {
				case <-done:
					return // aborted: skip chunks already queued
				default:
				}
				if queueWait != nil {
					queueWait.ObserveSince(job.enq)
				}
				err := ctx.Err()
				var val any
				if err == nil {
					var segs []*core.Segment
					segs, err = job.chunk.Segments(&sc.read)
					if err == nil {
						val, err = fn(e, ctx, p, sc, segs)
					}
				}
				select {
				case results <- chunkResult{seq: job.seq, val: val, err: err}:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := map[int]any{}
	next := 0
	var firstErr error
	abort := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(done)
		}
	}
	for r := range results {
		if r.err != nil {
			abort(r.err)
			continue
		}
		if firstErr != nil {
			continue // drain only
		}
		pending[r.seq] = r.val
		for val, ok := pending[next]; ok; val, ok = pending[next] {
			delete(pending, next)
			next++
			if err := consume(val); err != nil {
				abort(err)
				break
			}
		}
	}
	if err := <-prodErr; err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// mergeGroups folds src into dst. The chunk-local states are
// exclusively owned by this query, so they merge in place.
func mergeGroups(dst, src map[string]*GroupState) {
	for key, g := range src {
		if m, ok := dst[key]; ok {
			m.merge(g)
		} else {
			dst[key] = g
		}
	}
}
