package storage

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"modelardb/internal/core"
	"modelardb/internal/durable"
)

// DefaultBulkWriteSize matches Table 1's "Bulk Write Size 50,000":
// inserted segments are buffered and written in bulk.
const DefaultBulkWriteSize = 50000

// FileStore is a log-structured segment store: segments are appended
// to a single log and indexed in memory by (Gid, EndTime), mirroring
// the paper's Cassandra primary key (§3.3). Every bulk write lands
// sorted by that key, one frame of package durable per block of one
// group's segments (core.AppendBlock), so the segments a scan wants
// are runs of neighbours in the log and one read fetches a run. On
// open the log is scanned and a corrupt or torn tail is truncated at a
// frame boundary, so a crash between Flushes loses only unflushed
// segments, and a torn bulk write loses whole blocks. The log is a
// file or, without a directory, a byte slice; everything above it is
// the same.
type FileStore struct {
	mu      sync.RWMutex
	file    durable.File
	offset  int64
	members MembersFunc
	// err is the first failed fsync. The log's durable state is unknown
	// after one, so every later Insert, Flush and Sync returns it.
	err error

	bulkSize int
	buffer   []*core.Segment

	// index maps each group to its segments' locations ordered by
	// EndTime. Scans keep sub-slices of it after the lock is released
	// (collectRefs), so nothing below a published slice's length is
	// ever written again (addIndex).
	index map[core.Gid][]recordRef
	// pending holds one block's refs until the whole block has decoded.
	pending []recordRef
	// scratch is the segment blocks are decoded into while indexing.
	scratch core.Segment
	// maxDur tracks each group's longest segment duration, bounding how
	// far past a filter's To a scan must look (a segment ending later
	// than To+maxDur cannot start at or before To).
	maxDur map[core.Gid]int64
	// minStart is the per-group time-range index: together with the last
	// record's endTime it bounds the group's coverage so scans skip
	// groups entirely outside the filter window.
	minStart map[core.Gid]int64
	count    int64
	// size is the log's length without its frame headers.
	size int64

	// reads and readBytes count the log reads scans issued and the bytes
	// they fetched: one add per run of adjacent segments, not per segment.
	reads, readBytes atomic.Int64
}

// memLog is a log held in memory: nothing survives the process, so
// Sync has nothing to do.
type memLog struct {
	mu   sync.RWMutex
	data []byte
}

func (m *memLog) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := copy(p, m.data[min(off, int64(len(m.data))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt overwrites from off and extends the log past its end; the
// store never writes beyond the end.
func (m *memLog) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := copy(m.data[off:], p)
	m.data = append(m.data, p[n:]...)
	return len(p), nil
}

func (m *memLog) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = m.data[:min(size, int64(len(m.data)))]
	return nil
}

func (m *memLog) Sync() error  { return nil }
func (m *memLog) Close() error { return nil }

// recordRef locates one segment in the log: its block entry and, for
// the first segment of a block, the frame and block header before it,
// so the refs of a whole log tile it and a run of neighbouring blocks
// is one read. It carries what the entry leaves to its block header.
// weight is the segment's decode-cost chunk weight (segmentWeight) of
// its entry, computed once at index time so the adaptive ScanChunks
// sizing never re-decodes segments; it is capped at MaxInt32, far above
// ChunkByteBudget.
type recordRef struct {
	endTime   int64
	startTime int64
	offset    int64
	si        int64
	length    int32
	weight    int32
	gid       core.Gid
	// head is how many of the length bytes are frame and block header.
	head uint8
}

const (
	logName = "segments.log"
	// maxRunBytes caps one coalesced log read.
	maxRunBytes = 1 << 20
)

// ErrLegacyLog is returned by OpenFileStore for a segments.log of
// per-segment records, the format that blocks replaced. Nothing in it
// is touched; this build does not read it.
var ErrLegacyLog = errors.New("storage: segments.log holds per-segment records of an older build, not blocks, and is not supported")

// OpenFileStore opens (creating if needed) the store in dir; an empty
// dir keeps the log in memory. bulkSize <= 0 selects
// DefaultBulkWriteSize.
func OpenFileStore(dir string, members MembersFunc, bulkSize int) (*FileStore, error) {
	return OpenFS(durable.OS{}, dir, members, bulkSize)
}

// OpenFS is OpenFileStore over the file system fsys. An empty dir
// keeps the log in memory whatever fsys is.
func OpenFS(fsys durable.FS, dir string, members MembersFunc, bulkSize int) (*FileStore, error) {
	if dir == "" {
		return openLog(&memLog{}, 0, members, bulkSize)
	}
	if err := durable.MkdirAll(fsys, dir); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	path := filepath.Join(dir, logName)
	file, size, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		file, err = durable.Create(fsys, path)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s, err := openLog(file, size, members, bulkSize)
	if err != nil {
		file.Close()
		return nil, err
	}
	return s, nil
}

// NewMemStore returns an empty store whose log is held in memory, with
// the default bulk write size.
func NewMemStore(members MembersFunc) *FileStore {
	s, _ := OpenFileStore("", members, 0) // an empty memory log cannot fail to open
	return s
}

// openLog recovers the store from the size bytes of file.
func openLog(file durable.File, size int64, members MembersFunc, bulkSize int) (*FileStore, error) {
	if bulkSize <= 0 {
		bulkSize = DefaultBulkWriteSize
	}
	s := &FileStore{file: file, members: members, bulkSize: bulkSize}
	if err := s.recover(size); err != nil {
		return nil, err
	}
	return s, nil
}

// recover scans the first size bytes of the log, rebuilding the index
// and truncating any corrupt tail left by a crash. The caller must hold
// the write lock (or own the store exclusively, as openLog does) and
// the write buffer must be empty.
func (s *FileStore) recover(size int64) error {
	s.index = make(map[core.Gid][]recordRef)
	s.maxDur = make(map[core.Gid]int64)
	s.minStart = make(map[core.Gid]int64)
	s.count, s.size, s.offset = 0, 0, 0
	legacy := false
	_, err := durable.Scan(s.file, size, func(payload []byte) error {
		if legacy = s.offset == 0 && payload[0] != core.BlockTag; legacy {
			return ErrLegacyLog
		}
		if err := s.indexBlock(payload, s.offset); err != nil {
			return err
		}
		s.offset += int64(durable.FrameHeader + len(payload))
		return nil
	})
	if err != nil {
		return fmt.Errorf("storage: recover: %w", err)
	}
	if legacy {
		return ErrLegacyLog
	}
	if err := s.file.Truncate(s.offset); err != nil {
		return fmt.Errorf("storage: truncate: %w", err)
	}
	return nil
}

// memberRun asks the store for a group's members — which the gap mask
// is packed over — only when the Gid changes from one segment to the
// next.
type memberRun struct {
	members MembersFunc
	gid     core.Gid
	tids    []core.Tid
}

func (m *memberRun) of(gid core.Gid) []core.Tid {
	if m.tids == nil || m.gid != gid {
		m.gid, m.tids = gid, m.members(gid)
	}
	return m.tids
}

// indexBlock adds the segments of the block payload, whose frame
// starts at offset, to the index; nothing is added unless the whole
// block decodes.
func (s *FileStore) indexBlock(payload []byte, offset int64) error {
	r, err := core.NewBlockReader(payload)
	if err != nil {
		return err
	}
	members := s.members(r.Gid())
	refs := s.pending[:0]
	seg := &s.scratch
	for r.More() {
		begin := r.Offset()
		if err := r.Next(seg, members); err != nil {
			return err
		}
		entry := r.Offset() - begin
		ref := recordRef{
			endTime:   seg.EndTime,
			startTime: seg.StartTime,
			offset:    offset + int64(durable.FrameHeader+begin),
			si:        seg.SI,
			length:    int32(entry),
			weight:    int32(min(segmentWeight(int64(entry), seg), math.MaxInt32)),
			gid:       seg.Gid,
		}
		if len(refs) == 0 {
			ref.head = uint8(durable.FrameHeader + begin)
			ref.offset -= int64(ref.head)
			ref.length += int32(ref.head)
		}
		refs = append(refs, ref)
	}
	s.addIndex(refs)
	s.pending = refs[:0]
	s.size += int64(len(payload))
	return nil
}

// addIndex adds one block's refs, all of one group, to the index,
// after the group's refs of equal EndTime, in block order among
// themselves. A scan may still read any slice the index has published,
// so no ref below its length is overwritten: refs that sort at or after
// the group's last are appended, which writes only past the length,
// and an insert among them builds a new slice.
func (s *FileStore) addIndex(block []recordRef) {
	byEnd := func(a, b recordRef) int { return cmp.Compare(a.endTime, b.endTime) }
	if !slices.IsSortedFunc(block, byEnd) { // only a hand-made log's block
		slices.SortStableFunc(block, byEnd)
	}
	gid := block[0].gid
	refs := s.index[gid]
	if len(refs) == 0 || block[0].endTime >= refs[len(refs)-1].endTime {
		s.index[gid] = append(refs, block...)
	} else {
		s.index[gid] = mergeRefs(refs, block)
	}
	for _, ref := range block {
		if dur := ref.endTime - ref.startTime; dur > s.maxDur[gid] {
			s.maxDur[gid] = dur
		}
		if ms, ok := s.minStart[gid]; !ok || ref.startTime < ms {
			s.minStart[gid] = ref.startTime
		}
	}
	s.count += int64(len(block))
}

// mergeRefs returns a new slice of the refs of old and block, both
// sorted by EndTime, in EndTime order and old first among equals.
func mergeRefs(old, block []recordRef) []recordRef {
	out := make([]recordRef, 0, len(old)+len(block))
	for len(old) > 0 && len(block) > 0 {
		if block[0].endTime < old[0].endTime {
			out, block = append(out, block[0]), block[1:]
		} else {
			out, old = append(out, old[0]), old[1:]
		}
	}
	return append(append(out, old...), block...)
}

// Insert implements SegmentStore: the segment is buffered and the
// buffer written out when it reaches the bulk write size.
func (s *FileStore) Insert(seg *core.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.buffer = append(s.buffer, seg)
	if len(s.buffer) >= s.bulkSize {
		return s.flushLocked()
	}
	return nil
}

// Flush implements SegmentStore.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// flushLocked writes the buffer at the log's end. The write is
// positional, so a retry after a failed or short write overwrites
// whatever part of it reached the log.
func (s *FileStore) flushLocked() error {
	if s.err != nil {
		return s.err
	}
	if len(s.buffer) == 0 {
		return nil
	}
	// Cluster the bulk write by the index key (§3.3). The sort is stable,
	// so segments with equal keys keep their insertion order and the
	// scan order is what it would be unsorted.
	slices.SortStableFunc(s.buffer, func(a, b *core.Segment) int {
		return cmp.Or(cmp.Compare(a.Gid, b.Gid), cmp.Compare(a.EndTime, b.EndTime))
	})
	size := 0 // a size hint: one allocation, not a growth series
	for _, seg := range s.buffer {
		size += 16 + len(seg.Params)
	}
	out := make([]byte, 0, size)
	var payload []byte
	for rest := s.buffer; len(rest) > 0; {
		var n int
		payload, n = core.AppendBlock(payload[:0], rest, s.members(rest[0].Gid))
		out = durable.AppendFrame(out, payload)
		rest = rest[n:]
	}
	if _, err := s.file.WriteAt(out, s.offset); err != nil {
		return fmt.Errorf("storage: write: %w", err)
	}
	// The index is built from the bytes written, by the code recovery
	// runs, so the two cannot disagree.
	for len(out) > 0 {
		length := durable.FrameHeader + int(binary.LittleEndian.Uint32(out))
		if err := s.indexBlock(out[durable.FrameHeader:length], s.offset); err != nil {
			return fmt.Errorf("storage: index: %w", err)
		}
		s.offset += int64(length)
		out = out[length:]
	}
	clear(s.buffer) // the log has the segments now; do not pin them
	s.buffer = s.buffer[:0]
	return nil
}

// LogOffset returns the length of the segment log: the offset at
// which the next flushed block will be written. Buffered segments are
// not included — the offset covers exactly the blocks a torn-tail
// recovery can see. The WAL checkpoint records it so crash recovery
// knows where the store's durable prefix ends.
func (s *FileStore) LogOffset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.offset
}

// TruncateLog discards every block at or beyond offset and rebuilds
// the index from the remaining prefix. WAL recovery calls it before
// replaying the logged tail: segments written after the last
// checkpoint are dropped so re-ingesting their points cannot duplicate
// data. It must not be called with buffered inserts pending.
func (s *FileStore) TruncateLog(offset int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if offset < 0 {
		offset = 0
	}
	if offset >= s.offset {
		return nil
	}
	if len(s.buffer) > 0 {
		return errors.New("storage: TruncateLog with buffered segments")
	}
	return s.recover(offset)
}

// Sync flushes buffered segments and fsyncs the log. A failed fsync
// poisons the store: see FileStore.err.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		s.err = fmt.Errorf("storage: sync: %w", err)
		return s.err
	}
	return nil
}

// collectRefs flushes the write buffer, then returns, in ascending
// (Gid, EndTime) order, one span of the index per group that may hold
// segments matching the filter. A span is a capacity-clipped sub-slice
// of the group's index slice, not a copy: addIndex never writes below a
// published length, so it keeps what it held here after the lock is
// released. It may hold refs starting after f.To, which the chunk walk
// skips. Segments are read back and decoded without any lock held.
// Only a scan that finds buffered segments takes the exclusive lock, so
// queries over a quiet store enumerate side by side.
func (s *FileStore) collectRefs(f Filter) ([][]recordRef, error) {
	s.mu.RLock()
	if len(s.buffer) > 0 {
		s.mu.RUnlock()
		s.mu.Lock()
		err := s.flushLocked() // re-checks: another scan may have flushed
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	gids := f.Gids
	if gids == nil {
		gids = make([]core.Gid, 0, len(s.index))
		for gid := range s.index {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	}
	spans := make([][]recordRef, 0, len(gids))
	for _, gid := range gids {
		rs := s.index[gid]
		// Per-group time-range index: skip groups whose whole coverage
		// [minStart, last endTime] misses the filter window.
		if len(rs) == 0 || s.minStart[gid] > f.To || rs[len(rs)-1].endTime < f.From {
			continue
		}
		// Push-down: skip segments with endTime < From, stop once endTime
		// is so late the segment cannot reach back to To.
		i := sort.Search(len(rs), func(i int) bool { return rs[i].endTime >= f.From })
		j := len(rs)
		if f.To <= maxTime-s.maxDur[gid] {
			stop := f.To + s.maxDur[gid]
			j = max(i, sort.Search(len(rs), func(i int) bool { return rs[i].endTime > stop }))
		}
		if i < j {
			spans = append(spans, rs[i:j:j])
		}
	}
	return spans, nil
}

// fileChunk is a view of the index, not a copy of it. spans is the
// scan's span list from the chunk's first group on; the chunk's n refs
// start at spans[0][lo] and are the next n in the spans that start at
// or before to. size is their total length in the log.
type fileChunk struct {
	store       *FileStore
	spans       [][]recordRef
	lo, n, size int
	to          int64
}

// refs yields the chunk's refs in scan order.
func (c *fileChunk) refs(yield func(*recordRef) bool) {
	lo, n := c.lo, c.n
	for _, span := range c.spans {
		for k := lo; k < len(span); k++ {
			if ref := &span[k]; ref.startTime <= c.to {
				if !yield(ref) {
					return
				}
				if n--; n == 0 {
					return
				}
			}
		}
		lo = 0
	}
}

// Segments implements Chunk.
func (c *fileChunk) Segments(into *ReadScratch) ([]*core.Segment, error) {
	return c.store.readRefs(c, into)
}

// readRefs is the store's one read routine: it reads the segments of
// chunk c and decodes their block entries in place. Refs that are
// neighbours in the log, as a sorted bulk write leaves a group's
// segments and the groups after it, are fetched by a single ReadAt
// (positional, so readers never interfere with appends), which reads
// through the block headers between them; segments that are not are
// runs of one through the same loop. The bytes land in one buffer, the
// segments in one arena, and each segment's Params alias the buffer.
// With a nil into, both are ordinary garbage-collected allocations that
// are never reused, so a caller may keep a returned segment for as long
// as it likes — at the price of keeping its chunk's buffer alive with
// it. With a scratch, they are the scratch's, and the segments last
// until its next use.
func (s *FileStore) readRefs(c *fileChunk, into *ReadScratch) ([]*core.Segment, error) {
	buf, arena, segs := into.take(c.size, c.n)
	var off int64 // where in the log the run being gathered starts
	run, done := 0, 0
	for ref := range c.refs {
		if run > 0 && (ref.offset != off+int64(run) || run+int(ref.length) > maxRunBytes) {
			if err := s.readRun(buf[done:done+run], off); err != nil {
				return nil, err
			}
			done, run = done+run, 0
		}
		if run == 0 {
			off = ref.offset
		}
		run += int(ref.length)
	}
	if err := s.readRun(buf[done:done+run], off); err != nil {
		return nil, err
	}
	members := memberRun{members: s.members}
	i := 0
	for ref := range c.refs {
		seg, length := &arena[i], int(ref.length)
		seg.Gid, seg.SI, seg.StartTime, seg.EndTime = ref.gid, ref.si, ref.startTime, ref.endTime
		if err := seg.DecodeEntry(buf[ref.head:length:length], members.of(ref.gid)); err != nil {
			return nil, err
		}
		segs[i] = seg
		buf = buf[length:]
		i++
	}
	return segs, nil
}

// readRun fills dst from the log at off: one read, counted.
func (s *FileStore) readRun(dst []byte, off int64) error {
	if _, err := s.file.ReadAt(dst, off); err != nil {
		return fmt.Errorf("storage: read: %w", err)
	}
	s.reads.Add(1)
	s.readBytes.Add(int64(len(dst)))
	return nil
}

// ReadStats reports how many log reads scans have issued and how many
// bytes they fetched since the store was opened.
func (s *FileStore) ReadStats() (reads, bytes int64) {
	return s.reads.Load(), s.readBytes.Load()
}

// Scan implements SegmentStore with (Gid, EndTime) push-down: it walks
// the same lazily read chunks ScanChunks hands out, one at a time.
// Buffered segments are flushed first so queries during ingestion see
// all data (online analytics, §3.1).
func (s *FileStore) Scan(ctx context.Context, f Filter, fn func(*core.Segment) error) error {
	return s.ScanChunks(ctx, f, 0, func(c Chunk) error {
		segs, err := c.Segments(nil)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(seg); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanChunks implements SegmentStore. Only the index is consulted up
// front, and chunks are cut over its spans without copying a ref; each
// chunk reads the log lazily, on the goroutine that asks for its
// segments, so a parallel scan spreads the deserialization cost across
// its workers. The adaptive sizing (chunkSize <= 0) budgets chunks by
// the decode-cost weight recorded at index time, so one chunk carries
// roughly ChunkByteBudget of decode work, not merely of log bytes.
func (s *FileStore) ScanChunks(ctx context.Context, f Filter, chunkSize int, emit func(Chunk) error) error {
	spans, err := s.collectRefs(f)
	if err != nil {
		return err
	}
	var c *fileChunk
	var first int // the span c starts in
	var weight int64
	cut := func(last int) error { // c ends in span last
		if err := ctx.Err(); err != nil {
			return err
		}
		c.spans = spans[first : last+1 : last+1]
		err := emit(c)
		c = nil
		return err
	}
	for i, span := range spans {
		for k := range span {
			ref := &span[k]
			if ref.startTime > f.To {
				continue
			}
			if c == nil {
				c, first, weight = &fileChunk{store: s, lo: k, to: f.To}, i, 0
			}
			c.n++
			c.size += int(ref.length)
			weight += int64(ref.weight)
			if chunkFull(c.n, weight, chunkSize) {
				if err := cut(i); err != nil {
					return err
				}
			}
		}
	}
	if c != nil {
		return cut(len(spans) - 1)
	}
	return nil
}

// Count implements SegmentStore.
func (s *FileStore) Count() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count + int64(len(s.buffer)), nil
}

// SizeBytes implements SegmentStore: the bytes of the log's blocks,
// without the frame headers around them. Buffered segments are counted
// as blocks of one, so the count does not depend on flush timing
// beyond what a flush saves by sharing block headers.
func (s *FileStore) SizeBytes() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	size := s.size
	for _, seg := range s.buffer {
		size += int64(len(seg.Encode(s.members(seg.Gid))))
	}
	return size, nil
}

// Close implements SegmentStore.
func (s *FileStore) Close() error {
	err := s.Sync()
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}
