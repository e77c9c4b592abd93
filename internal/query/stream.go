package query

import (
	"context"
	"sort"

	"modelardb/internal/obs"
	"modelardb/internal/sqlparse"
)

// Streaming partial execution: the worker-side counterpart of the
// chunked response frames in the cluster transport. Rather than one
// monolithic PartialResult, which the master would buffer whole before
// merging, ExecutePartialChunks emits the worker's result as a
// sequence of size-bounded PartialResult chunks, each independently
// mergeable through MergePartial, so a consumer's peak memory is one
// chunk (plus whatever it accumulates) instead of the full reply.
//
// Determinism: a consumer that folds every chunk from one worker into
// one accumulator (MergePartial) and then finalizes the per-worker
// accumulators in worker order reproduces the buffered path exactly.
// Non-aggregate chunks carry row batches in scan order, so
// concatenation is the sequential row order; aggregate chunks are
// group-disjoint — each group's complete state travels in exactly one
// chunk, in sorted key order — so folding them rebuilds the worker's
// groups map without re-associating any floating-point merges.

// DefaultStreamChunkBytes bounds a response chunk when the caller does
// not configure stream_chunk_bytes: large enough to amortize framing,
// small enough that a master merging many workers stays far below the
// monolithic reply's footprint.
const DefaultStreamChunkBytes = 1 << 20

// ExecutePartialChunks runs the worker-side part of a query — scan,
// iterate and per-group partial aggregation (Algorithm 5 lines 9-13) —
// and emits the result incrementally as size-bounded chunks. emit runs
// on the calling goroutine, in order; a non-nil error from it aborts
// the scan and is returned. Every query emits at least one chunk (a
// result can be empty, its Columns are not), and a chunk may exceed
// maxBytes by at most one row or group — the bound is an estimate, not
// a promise. maxBytes <= 0 selects DefaultStreamChunkBytes. The trace
// counts the rows of every emitted chunk.
func (e *Engine) ExecutePartialChunks(ctx context.Context, q *sqlparse.Query, maxBytes int, emit func(*PartialResult) error) error {
	tr := e.beginTrace(q)
	sp := tr.StartSpan(obs.SpanPlan)
	p, err := e.compile(q)
	sp.End()
	if err != nil {
		e.finishTrace(tr, err)
		return err
	}
	p.trace = tr
	if maxBytes <= 0 {
		maxBytes = DefaultStreamChunkBytes
	}
	err = e.runChunksTraced(ctx, p, maxBytes, func(part *PartialResult) error {
		tr.Add(obs.Rows, int64(part.NumRows()))
		return emit(part)
	}, tr)
	e.finishTrace(tr, err)
	return err
}

// runChunksTraced runs the chunked worker-side execution with the scan
// stage under a span (chunk emission included — rows leave the worker
// as the scan produces them, so the two are one stage here).
func (e *Engine) runChunksTraced(ctx context.Context, p *plan, maxBytes int, emit func(*PartialResult) error, tr *obs.Trace) error {
	sp := tr.StartSpan(obs.SpanScan)
	defer sp.End()
	if p.isAggregate {
		part, err := e.runAggregate(ctx, p)
		if err != nil {
			return err
		}
		return emitGroupChunks(p, part, maxBytes, emit)
	}
	return e.runSelectChunks(ctx, p, maxBytes, emit)
}

// emitGroupChunks splits a finished aggregate partial into
// group-disjoint chunks in sorted key order. Aggregation cannot stream
// mid-scan — a group's state is mergeable but only complete once every
// segment contributed — so the scan runs to completion and only the
// reply is chunked; what streaming buys here is the master never
// holding more than one chunk of any worker's groups un-merged.
func emitGroupChunks(p *plan, part *PartialResult, maxBytes int, emit func(*PartialResult) error) error {
	keys := make([]string, 0, len(part.Groups))
	for key := range part.Groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	chunk := &PartialResult{Columns: p.outColumns, IsAggregate: true, Groups: map[string]*GroupState{}}
	size := 0
	emitted := false
	flush := func() error {
		out := chunk
		chunk = &PartialResult{Columns: p.outColumns, IsAggregate: true, Groups: map[string]*GroupState{}}
		size = 0
		emitted = true
		return emit(out)
	}
	for _, key := range keys {
		g := part.Groups[key]
		chunk.Groups[key] = g
		size += groupSize(key, g)
		if size >= maxBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(chunk.Groups) > 0 || !emitted {
		return flush()
	}
	return nil
}

// runSelectChunks streams a non-aggregate query's rows in scan order,
// flushing a chunk whenever the estimated size reaches maxBytes. It
// flushes from scan's in-order consumer, so rows leave the worker as
// they are produced, never accumulating past one chunk.
func (e *Engine) runSelectChunks(ctx context.Context, p *plan, maxBytes int, emit func(*PartialResult) error) error {
	// One reused buffer batch backs every emitted chunk: a chunk (and
	// its Batch) is valid only for the duration of the emit call, and
	// consumers must copy (MergePartial, ColumnBatch.Clone) or encode
	// (the rpc stream) before returning. Every in-repo consumer does;
	// the contract is what lets a whole stream run on this buffer plus
	// the pooled chunk batches in flight.
	buf := getBatch(p.colTypes)
	defer buf.release()
	out := &PartialResult{Columns: p.outColumns}
	emitted := false
	flush := func() error {
		out.Batch = buf
		emitted = true
		err := emit(out)
		out.Batch = nil
		buf.retype(buf.types)
		return err
	}
	// add copies src a run of rows at a time, each run ending where
	// appending row by row would flush (cutRow).
	add := func(src *ColumnBatch) error {
		for lo := 0; lo < src.Len(); {
			hi := buf.cutRow(src, lo, maxBytes)
			buf.appendRows(src, lo, hi)
			lo = hi
			if buf.ByteSize() >= maxBytes {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := e.scan(ctx, p, (*Engine).selectChunk, func(part any) error {
		src := part.(*ColumnBatch)
		err := add(src)
		src.release()
		return err
	})
	if err != nil {
		return err
	}
	if buf.Len() > 0 || !emitted {
		return flush()
	}
	return nil
}

// MergePartial folds one streamed chunk into an accumulator. Folding
// every chunk from one worker and finalizing the accumulators in
// worker order (Engine.Finalize) reproduces the buffered scatter
// exactly; see the package comment above for why.
func MergePartial(dst, src *PartialResult) {
	if dst.Columns == nil {
		dst.Columns = src.Columns
	}
	if src.IsAggregate {
		dst.IsAggregate = true
		if dst.Groups == nil {
			dst.Groups = map[string]*GroupState{}
		}
		mergeGroups(dst.Groups, src.Groups)
	}
	if src.Batch != nil {
		if dst.Batch == nil {
			// The accumulator copies, never aliases: chunk batches are
			// only valid during emit.
			dst.Batch = NewColumnBatch(src.Batch.Types())
		}
		dst.Batch.AppendBatch(src.Batch)
	}
}

// groupSize estimates one group's footprint inside a chunk.
func groupSize(key string, g *GroupState) int {
	size := 32 + len(key) + 64*len(g.Scalars)
	for _, v := range g.Key {
		if s, ok := v.(string); ok {
			size += 16 + len(s)
		} else {
			size += 16
		}
	}
	for _, c := range g.Cubes {
		size += 48 * len(c)
	}
	return size
}
