// Package storage implements the Segment Group Store of the paper's
// architecture (Fig. 4): persistent storage of segments keyed by
// (Gid, EndTime, Gaps) with predicate push-down on group ids and time
// ranges (§3.3). There is one store, FileStore: one log of segment
// blocks in package durable's frames, on disk or in memory, with crash
// recovery and the bulk write buffer of Table 1.
package storage

import (
	"context"

	"modelardb/internal/core"
)

// Filter is the predicate pushed down to the store (§6.2): segments of
// the given groups overlapping [From, To]. Like the paper's Cassandra
// schema the store indexes EndTime per group; the derived StartTime is
// filtered before segments are returned.
type Filter struct {
	// Gids restricts the scan to these groups; nil means all groups.
	Gids []core.Gid
	// From and To bound the segment interval inclusively. The zero
	// filter (From=0, To=0) is normalized by NewFilter to all time.
	From, To int64
}

// AllTime returns a filter matching every segment of the given groups.
func AllTime(gids ...core.Gid) Filter {
	return Filter{Gids: gids, From: minTime, To: maxTime}
}

// TimeRange returns a filter for the groups restricted to [from, to].
func TimeRange(from, to int64, gids ...core.Gid) Filter {
	return Filter{Gids: gids, From: from, To: to}
}

const (
	minTime = -1 << 62
	maxTime = 1<<62 - 1
)

// Chunk is one unit of parallel scan work: a batch of consecutive
// matching segments that materializes lazily, so the expensive part of
// a scan (deserializing segments from disk) runs on the goroutine that
// consumes the chunk rather than on the goroutine enumerating them.
type Chunk interface {
	// Segments decodes and returns the chunk's segments in scan order.
	// It is safe to call from any goroutine, concurrently with calls on
	// other chunks of the same scan. The segments are read-only.
	//
	// With a nil into they are fresh: the caller's to keep, never
	// reused, but sharing one allocation, so keeping one keeps its
	// whole chunk alive. With a scratch they are lent: decoded into
	// into's memory, and valid only until into's next use. A scratch
	// belongs to one goroutine at a time.
	Segments(into *ReadScratch) ([]*core.Segment, error)
}

// ReadScratch is the memory a Chunk's segments are read into when the
// caller lends it (Chunk.Segments): the log bytes, the segment arena
// and the slice of pointers into it, in the idiom of a decoder's dst.
// It grows to the largest chunk it has read and is reused for the next,
// so a scan worker that keeps one reads without allocating. The zero
// value is ready to use.
type ReadScratch struct {
	buf   []byte
	arena []core.Segment
	segs  []*core.Segment
}

// take returns a buffer of size bytes and an arena and pointer slice
// of n segments: new ones for a nil scratch, else the scratch's own,
// replaced when they are too small. Reused memory is not cleared:
// every byte and segment is overwritten before it is read.
func (r *ReadScratch) take(size, n int) ([]byte, []core.Segment, []*core.Segment) {
	if r == nil {
		return make([]byte, size), make([]core.Segment, n), make([]*core.Segment, n)
	}
	if cap(r.buf) < size {
		r.buf = make([]byte, size)
	}
	if cap(r.arena) < n {
		r.arena, r.segs = make([]core.Segment, n), make([]*core.Segment, n)
	}
	return r.buf[:size], r.arena[:n], r.segs[:n]
}

// Trim drops a buffer larger than one coalesced log read (maxRunBytes)
// and an arena larger than an adaptive chunk (AdaptiveMaxSegments), so
// a scratch kept in a pool after a scan with a huge explicit chunk size
// does not pin that chunk's memory.
func (r *ReadScratch) Trim() {
	if cap(r.buf) > maxRunBytes {
		r.buf = nil
	}
	if cap(r.arena) > AdaptiveMaxSegments {
		r.arena, r.segs = nil, nil
	}
}

// Adaptive chunk sizing: when ScanChunks is called with chunkSize <= 0
// the store sizes chunks itself, accumulating segments until a chunk
// reaches ChunkByteBudget of weight or AdaptiveMaxSegments segments,
// whichever comes first. Tiny segments (small groups, short models)
// coalesce into full-sized units of work instead of producing
// degenerate one-segment chunks, while a few large segments still form
// a chunk quickly.
//
// A chunk's weight is decode-cost-aware, not raw stored bytes: a
// highly compressed segment (a constant model covering thousands of
// sampling intervals in a handful of bytes) is cheap to store but
// expensive to scan, because reconstructing or aggregating it touches
// every covered interval. Budgeting by stored size alone would pack
// wildly uneven amounts of scan work into equal-byte chunks, and the
// query executor's shared job queue — the mechanism by which idle scan
// workers steal chunks across groups — would balance bytes instead of
// work. segmentWeight therefore adds PointWeight per covered sampling
// interval on top of the stored size, so equal-weight chunks take
// roughly equal time regardless of how well their models compressed.
const (
	// ChunkByteBudget is the target weight of one adaptive chunk.
	ChunkByteBudget = 256 << 10
	// AdaptiveMaxSegments caps an adaptive chunk's segment count so a
	// long run of empty-ish segments cannot grow a chunk without bound.
	AdaptiveMaxSegments = 1024
	// PointWeight is the scan-cost surcharge per covered sampling
	// interval, in stored-byte equivalents.
	PointWeight = 8
)

// segmentWeight returns a segment's decode-cost weight given its
// stored (or estimated) size.
func segmentWeight(stored int64, seg *core.Segment) int64 {
	return stored + PointWeight*int64(seg.Length())
}

// chunkFull reports whether a chunk of n records of the given total
// decode-cost weight is complete: at chunkSize records when
// chunkSize > 0, else at ChunkByteBudget of weight or
// AdaptiveMaxSegments records, whichever comes first.
func chunkFull(n int, weight int64, chunkSize int) bool {
	if chunkSize > 0 {
		return n >= chunkSize
	}
	return weight >= ChunkByteBudget || n >= AdaptiveMaxSegments
}

// SegmentStore stores and retrieves segments. Implementations must be
// safe for concurrent use by multiple goroutines.
type SegmentStore interface {
	// Insert adds a segment. Writes may be buffered until Flush.
	Insert(seg *core.Segment) error
	// Flush persists buffered writes.
	Flush() error
	// Scan calls fn for every stored segment matching the filter, in
	// ascending (Gid, EndTime) order. fn errors abort the scan, as does
	// ctx cancellation (checked between segments); the scan then returns
	// ctx.Err().
	Scan(ctx context.Context, f Filter, fn func(*core.Segment) error) error
	// ScanChunks shards the segments matching the filter into chunks of
	// at most chunkSize segments (chunkSize <= 0 selects the adaptive
	// byte-budget sizing above), calling emit for each chunk in
	// ascending (Gid, EndTime) order. Chunk boundaries never split the
	// match order, so concatenating all chunks reproduces Scan exactly.
	// The chunks stay valid after ScanChunks returns and may be
	// materialized concurrently from multiple goroutines; emit errors
	// abort the enumeration, as does ctx cancellation (checked between
	// chunks).
	ScanChunks(ctx context.Context, f Filter, chunkSize int, emit func(Chunk) error) error
	// Count returns the number of stored segments, including buffered.
	Count() (int64, error)
	// SizeBytes returns the serialized size of all stored segments,
	// the quantity the paper's storage experiments compare.
	SizeBytes() (int64, error)
	// Close flushes and releases resources.
	Close() error
}

// MembersFunc resolves the sorted member Tids of a group; stores use
// it to encode and decode the per-group gap bitmasks.
type MembersFunc func(core.Gid) []core.Tid
