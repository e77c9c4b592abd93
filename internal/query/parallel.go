package query

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/storage"
)

// The parallel segment-scan executor: the store shards the filtered
// segment stream into chunks (storage.SegmentStore.ScanChunks), a pool
// of workers materializes and processes the chunks concurrently, and
// the per-chunk partial states merge in scan order. Workers reuse
// ExecutePartial's per-segment aggregation, so the local-parallel and
// cluster paths share one mergeable partial-aggregation contract
// (§6.2: iterate on workers, merge and finalize on the master — here
// the "workers" are goroutines instead of cluster nodes).
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
// combined in that order, so a parallel run is reproducible regardless
// of goroutine scheduling, and non-aggregate queries return rows in
// exactly the sequential scan order. Aggregate results can differ from
// the sequential path only in floating-point association order.
//
// Cancellation: the producer checks the context between chunks (inside
// ScanChunks) and every worker checks it before materializing a chunk,
// so a cancelled query stops within one chunk of work per goroutine
// and the pool drains before scanParallel returns.

// SetParallelism sets the scan worker count used by Execute,
// ExecuteQuery and ExecutePartial: n == 1 forces the sequential
// executor (whose results parallel runs are tested against), n > 1
// uses that many workers and n <= 0 restores the default, GOMAXPROCS.
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

// scanChunkSize resolves the chunk size: tests pin a small fixed size
// to force many chunks through the pool; by default the store sizes
// chunks adaptively toward its byte budget (storage.ChunkByteBudget),
// so tiny segments coalesce instead of becoming degenerate chunks.
func (e *Engine) scanChunkSize() int {
	if e.chunk > 0 {
		return e.chunk
	}
	return 0
}

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

// scanParallel runs fn over every chunk of the plan's filtered segment
// stream on n workers and feeds the per-chunk results to consume in
// scan order, merging incrementally so only out-of-order results are
// retained (bounded by the pool, not the scan). fn runs concurrently
// from multiple goroutines and must only touch its own chunk's state;
// consume runs on the calling goroutine, and a non-nil error from it
// aborts the scan (the pool drains before scanParallel returns).
func (e *Engine) scanParallel(ctx context.Context, p *plan, n int, fn func([]*core.Segment) (any, error), consume func(any) error) error {
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
		err := e.store.ScanChunks(ctx, p.scanFilter(), e.scanChunkSize(), func(c storage.Chunk) error {
			job := chunkJob{seq: seq, chunk: c}
			if queueWait != nil {
				job.enq = time.Now()
			}
			select {
			case jobs <- job:
				p.trace.AddChunks(1)
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
					segs, err = job.chunk.Segments()
					if err == nil {
						val, err = fn(segs)
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

// runAggregatePar is the parallel counterpart of runAggregate: each
// chunk aggregates into its own GroupState map (ExecutePartial's
// iterate step), and the chunk partials merge in scan order exactly
// like cluster partials merge in Finalize.
func (e *Engine) runAggregatePar(ctx context.Context, p *plan, n int) (*PartialResult, error) {
	out := &PartialResult{Columns: p.outColumns, IsAggregate: true, Groups: map[string]*GroupState{}}
	err := e.scanParallel(ctx, p, n, func(segs []*core.Segment) (any, error) {
		groups := map[string]*GroupState{}
		sc := getScratch()
		defer sc.release(p.trace)
		for _, seg := range segs {
			if err := e.hookSegment(ctx, sc); err != nil {
				return nil, err
			}
			if err := e.aggregateSegment(p, seg, groups, sc); err != nil {
				return nil, err
			}
		}
		return groups, nil
	}, func(part any) error {
		mergeGroups(out.Groups, part.(map[string]*GroupState))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mergeGroups folds src into dst. The chunk-local states are
// exclusively owned by this query, so they merge in place.
func mergeGroups(dst, src map[string]*GroupState) {
	for key, g := range src {
		m, ok := dst[key]
		if !ok {
			dst[key] = g
			continue
		}
		for i := range g.Scalars {
			m.Scalars[i].Merge(g.Scalars[i])
		}
		for i := range g.Cubes {
			m.Cubes[i].Merge(g.Cubes[i])
		}
	}
}

// runSelectPar is the parallel counterpart of runSelect: each chunk
// projects its rows into its own pooled batch and the batches
// concatenate in scan order, reproducing the sequential row order.
// Worker batches go back to the pool as soon as they are merged, so a
// steady scan recycles one batch per in-flight chunk.
func (e *Engine) runSelectPar(ctx context.Context, p *plan, n int) (*PartialResult, error) {
	out := &PartialResult{Columns: p.outColumns, Batch: getBatch(p.colTypes)}
	err := e.scanParallel(ctx, p, n, func(segs []*core.Segment) (any, error) {
		b := getBatch(p.colTypes)
		sc := getScratch()
		defer sc.release(p.trace)
		for _, seg := range segs {
			if err := e.hookSegment(ctx, sc); err != nil {
				b.release()
				return nil, err
			}
			if err := e.selectSegment(p, seg, b, sc); err != nil {
				b.release()
				return nil, err
			}
		}
		return b, nil
	}, func(part any) error {
		src := part.(*ColumnBatch)
		out.Batch.AppendBatch(src)
		src.release()
		return nil
	})
	if err != nil {
		// Aborted scans may strand un-consumed chunk batches in the
		// collector's pending map; those fall to the GC, not the pool.
		out.ReleaseBatch()
		return nil, err
	}
	return out, nil
}
