// Package wal implements a group-sharded, point-level write-ahead log
// that makes acknowledged appends crash-durable before any data point
// reaches the in-memory model buffers of Fig. 4. The paper's pipeline
// holds accepted points in per-group generators and a bulk-write
// buffer until segments are finalized, so a crash would lose every
// accepted-but-unflushed point; with the WAL in front, recovery
// replays the logged tail through the normal ingestion path and the
// storage engine loses at most the last unsynced interval.
//
// Layout: records are point batches (gid, a per-group monotonic
// sequence number, the master-assigned batch sequence — 0 for
// unsequenced local appends — and the points), each in one frame of
// package durable, appended to per-shard segment files that rotate at
// SegmentBytes. A checkpoint — written after the segment store has
// synced, and replaced durably before anything is deleted — records
// the per-group high-water sequence, the per-group high-water applied
// master sequence, plus the store's log offset, and deletes WAL
// segments wholly below it. On open, torn or corrupt tails are
// truncated by the scan the segment store's log recovery uses; that
// single scan captures the un-checkpointed tail in memory, so Replay
// streams it back to the caller in per-group sequence order without
// re-reading the segment files.
//
// The applied master sequences are what makes distributed ingestion
// exactly-once: the cluster master stamps every Append batch with a
// per-group monotonic sequence, the worker records the high-water
// applied sequence here (in the records themselves and, once
// checkpointed, in the checkpoint file), and after a restart the
// rebuilt table lets the worker silently skip any batch a retry or
// re-queue delivers twice.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/durable"
	"modelardb/internal/obs"
)

// SyncPolicy selects when WAL writes are flushed and fsynced.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every logged batch: an acknowledged
	// append survives even an OS crash, at a per-append fsync cost.
	SyncAlways SyncPolicy = "always"
	// SyncInterval (the default) fsyncs on a background ticker: an OS
	// crash loses at most the last SyncInterval of acknowledged points,
	// while appends stay at in-memory buffered-write cost.
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves flushing to segment rotation, checkpoints and
	// the OS page cache: a process crash still loses nothing once the
	// buffered writer has drained, but an OS crash can lose everything
	// since the last checkpoint.
	SyncNever SyncPolicy = "never"
)

// ParsePolicy validates a policy string; "" selects SyncInterval.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncInterval, nil
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (use always, interval or never)", s)
	}
}

const (
	// DefaultSegmentBytes is the rotation threshold for one WAL segment.
	DefaultSegmentBytes = 16 << 20
	// DefaultSyncInterval is the fsync cadence under SyncInterval.
	DefaultSyncInterval = 100 * time.Millisecond
	// DefaultShards is the number of WAL shards; groups map to shards by
	// Gid, so writers of different shards never serialize on the log.
	DefaultShards = 8

	checkpointName = "checkpoint"
	metaName       = "walmeta"
	segmentSuffix  = ".wal"

	// recordVersion is the record format walmeta pins for a directory:
	// (gid, seq, applied master sequence, count, points).
	recordVersion = 2
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// ErrLegacyFormat is returned by Open for a directory whose walmeta
// holds only a shard count: it was written by a build that logged v1
// records, which carry no applied master sequence, and this build does
// not read them. Open touches nothing in such a directory.
var ErrLegacyFormat = errors.New("wal: v1 WAL directory (walmeta without a record version) is not supported")

// Options configures Open.
type Options struct {
	// Dir is the WAL directory (required).
	Dir string
	// Sync is the durability policy; "" selects SyncInterval.
	Sync SyncPolicy
	// SegmentBytes rotates segment files at this size; <= 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// SyncInterval is the fsync cadence under SyncInterval; <= 0
	// selects DefaultSyncInterval.
	SyncInterval time.Duration
	// Shards is the shard count; <= 0 selects DefaultShards. The count
	// is persisted on first open and later opens reuse the persisted
	// value, so the Gid-to-file mapping never changes under old logs.
	Shards int
	// Metrics, when non-nil, receives append/fsync latency and
	// group-commit coalescing observations. Monotonic totals the WAL
	// exposes as methods (FsyncCount, SizeBytes, ...) are the owner's to
	// register as collection-time functions.
	Metrics *obs.WALMetrics
}

// segmentInfo summarizes one sealed segment file for checkpoint
// truncation: a file whose per-group max sequences are all at or below
// the checkpoint holds only applied-and-stored data and is deleted.
type segmentInfo struct {
	index  uint64
	size   int64
	maxSeq map[core.Gid]uint64
}

// tailRecord is one un-checkpointed record the open scan captured for
// Replay, so a large log (a memory-store full journal in particular)
// pays its startup I/O once.
type tailRecord struct {
	gid core.Gid
	seq uint64
	ext uint64
	pts []core.DataPoint
}

// shard is one WAL shard: its own segment files, buffered writer and
// lock, so appends to groups of different shards do not serialize.
type shard struct {
	mu   sync.Mutex
	cond *sync.Cond // group-commit wakeups (synced advanced, leader done)
	fsys durable.FS
	dir  string
	file durable.File
	buf  []byte // pending writes not yet handed to the OS
	size int64  // current segment size including buffered bytes

	// Group-commit bookkeeping. logicalEnd counts every record byte ever
	// appended to this shard; unlike size it is monotonic across segment
	// rotations and checkpoint truncations, so it names a durability
	// point that never moves backwards. synced is the logical prefix
	// made durable, and syncing marks a leader's fsync running outside
	// the lock — rotation, truncation and close wait it out (waitSync)
	// so the file is never closed or truncated under an in-flight fsync.
	logicalEnd int64
	synced     int64
	syncing    bool
	// fsyncs counts fsyncs issued on this shard (observability: the
	// group-commit benchmark reports fsyncs per point).
	fsyncs int64
	// met mirrors Options.Metrics (nil disables latency observation).
	met *obs.WALMetrics

	index  uint64 // current segment's index
	curMax map[core.Gid]uint64
	sealed []*segmentInfo

	// seqs holds the last assigned sequence per group of this shard,
	// floored by the checkpoint so truncated groups keep counting up.
	seqs map[core.Gid]uint64
	// applied holds the highest master-assigned batch sequence logged
	// per group of this shard — the dedup table's durable source.
	applied map[core.Gid]uint64

	err error // sticky I/O error; appends fail once set

	scratch []byte
}

// WAL is a group-sharded point-level write-ahead log.
type WAL struct {
	opts   Options
	fsys   durable.FS
	shards []*shard

	ckptMu      sync.Mutex
	ckptSeqs    map[core.Gid]uint64
	ckptApplied map[core.Gid]uint64
	storeOff    int64
	hasCkpt     bool

	// appended counts record bytes appended since the last checkpoint —
	// the write-side backpressure signal surfaced through Stats.
	appended atomic.Int64
	// tail holds the records above the checkpoint the open scan
	// captured, in shard order, until Replay hands them out. replayed is
	// set by the first Replay or Append; Replay runs only before either.
	tail     []tailRecord
	replayed atomic.Bool

	stop     chan struct{}
	syncDone chan struct{}
	closed   atomic.Bool
}

// Open opens (creating if needed) the WAL in opts.Dir, truncating any
// torn or corrupt tail left by a crash. It does not replay: call
// Replay before the first Append to stream the un-checkpointed tail
// back through the ingestion path.
func Open(opts Options) (*WAL, error) { return OpenFS(durable.OS{}, opts) }

// OpenFS is Open over the file system fsys.
func OpenFS(fsys durable.FS, opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	policy, err := ParsePolicy(string(opts.Sync))
	if err != nil {
		return nil, err
	}
	opts.Sync = policy
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if err := durable.MkdirAll(fsys, opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := loadOrPersistMeta(fsys, &opts); err != nil {
		return nil, err
	}
	w := &WAL{
		opts:        opts,
		fsys:        fsys,
		ckptSeqs:    map[core.Gid]uint64{},
		ckptApplied: map[core.Gid]uint64{},
		stop:        make(chan struct{}),
		syncDone:    make(chan struct{}),
	}
	if err := w.loadCheckpoint(); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Shards; i++ {
		s, err := openShard(fsys, filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", i)), w.ckptSeqs, &w.tail)
		if err != nil {
			w.closeShards()
			return nil, err
		}
		s.met = opts.Metrics
		w.shards = append(w.shards, s)
	}
	// Floor every shard's sequence counters at the checkpoint, so a
	// group whose records were all truncated keeps counting upward and
	// never reuses a sequence the checkpoint already covers.
	for gid, seq := range w.ckptSeqs {
		s := w.shardOf(gid)
		if s.seqs[gid] < seq {
			s.seqs[gid] = seq
		}
	}
	if opts.Sync == SyncInterval {
		go w.syncLoop()
	} else {
		close(w.syncDone)
	}
	return w, nil
}

// loadOrPersistMeta pins the shard count and record format version
// across opens: the Gid-to-shard-file mapping and the byte layout of
// existing records must not change while old segments exist. walmeta
// holds the version and the shard count ("2 8").
func loadOrPersistMeta(fsys durable.FS, opts *Options) error {
	path := filepath.Join(opts.Dir, metaName)
	data, err := durable.ReadFile(fsys, path)
	if err == nil {
		opts.Shards, err = parseMeta(data)
		return err
	}
	if errors.Is(err, os.ErrNotExist) {
		err = durable.Replace(fsys, path, []byte(fmt.Sprintf("%d %d", recordVersion, opts.Shards)))
	}
	if err != nil {
		return fmt.Errorf("wal: %s: %w", metaName, err)
	}
	return nil
}

// parseMeta returns the shard count walmeta pins.
func parseMeta(data []byte) (int, error) {
	fields := strings.Fields(string(data))
	if len(fields) == 1 {
		return 0, ErrLegacyFormat
	}
	if len(fields) == 2 && fields[0] == strconv.Itoa(recordVersion) {
		if n, err := strconv.Atoi(fields[1]); err == nil && n >= 1 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("wal: unsupported or corrupt %s: %q", metaName, data)
}

func (w *WAL) shardOf(gid core.Gid) *shard {
	return w.shards[int(gid)%len(w.shards)]
}

// Shards returns the shard count: group gid's records go to shard
// gid mod Shards, one file sequence written in append order.
func (w *WAL) Shards() int { return len(w.shards) }

// openShard scans a shard directory, truncating the first corrupt
// record and everything after it (torn tails from a crash), rebuilds
// the per-segment summaries, sequence counters and the applied table,
// and opens the last segment for appending. The same single scan
// appends every record above the checkpoint to tail for Replay, so
// opening never reads a segment file twice.
func openShard(fsys durable.FS, dir string, ckpt map[core.Gid]uint64, tail *[]tailRecord) (*shard, error) {
	if err := durable.MkdirAll(fsys, dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &shard{
		fsys:    fsys,
		dir:     dir,
		seqs:    map[core.Gid]uint64{},
		curMax:  map[core.Gid]uint64{},
		applied: map[core.Gid]uint64{},
	}
	s.cond = sync.NewCond(&s.mu)
	files, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(files); i++ {
		f := files[i]
		file, size, err := fsys.Open(s.segmentPath(f.index))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		f.maxSeq = map[core.Gid]uint64{}
		f.size, err = scanRecords(file, size, func(gid core.Gid, seq, ext uint64, pts []core.DataPoint) {
			if seq > f.maxSeq[gid] {
				f.maxSeq[gid] = seq
			}
			if seq > s.seqs[gid] {
				s.seqs[gid] = seq
			}
			if ext > s.applied[gid] {
				s.applied[gid] = ext
			}
			if seq > ckpt[gid] {
				*tail = append(*tail, tailRecord{gid: gid, seq: seq, ext: ext, pts: pts})
			}
		})
		if err == nil && f.size < size {
			// Torn or corrupt tail: truncate here and drop any later
			// segments — like the store's log recovery, the intact
			// prefix is the recovered state.
			err = file.Truncate(f.size)
			for _, g := range files[i+1:] {
				if err == nil {
					err = fsys.Remove(s.segmentPath(g.index))
				}
			}
			files = files[:i+1]
		}
		if err == nil && i == len(files)-1 {
			s.file = file
			break
		}
		file.Close()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	if len(files) == 0 {
		return s, s.openSegment(1)
	}
	last := files[len(files)-1]
	s.sealed = files[:len(files)-1]
	s.index, s.size, s.curMax = last.index, last.size, last.maxSeq
	return s, nil
}

// segmentPath names segment file number index.
func (s *shard) segmentPath(index uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016d%s", index, segmentSuffix))
}

// openSegment creates and switches to segment file number index.
func (s *shard) openSegment(index uint64) error {
	file, err := durable.Create(s.fsys, s.segmentPath(index))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.file = file
	s.index = index
	s.size = 0
	s.curMax = map[core.Gid]uint64{}
	return nil
}

// listSegments returns the shard's segment files in index order.
func (s *shard) listSegments() ([]*segmentInfo, error) {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var files []*segmentInfo
	for _, name := range names {
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if !strings.HasSuffix(name, segmentSuffix) || err != nil {
			continue
		}
		files = append(files, &segmentInfo{index: idx})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].index < files[j].index })
	return files, nil
}

// scanRecords scans the records in the first size bytes of a segment,
// calling fn for each, and returns the length of the valid prefix: a
// record that does not decode ends it like a torn frame.
func scanRecords(r io.ReaderAt, size int64, fn func(gid core.Gid, seq, ext uint64, pts []core.DataPoint)) (int64, error) {
	return durable.Scan(r, size, func(payload []byte) error {
		gid, seq, ext, pts, err := decodeRecord(payload)
		if err == nil {
			fn(gid, seq, ext, pts)
		}
		return err
	})
}

// encodeRecord appends one record's payload (gid, seq, ext, then the
// points as one core.AppendPoints run) to buf.
func encodeRecord(buf []byte, gid core.Gid, seq, ext uint64, pts []core.DataPoint) []byte {
	buf = binary.AppendUvarint(buf, uint64(gid))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, ext)
	return core.AppendPoints(buf, pts)
}

// errCorruptRecord refuses a record payload that encodeRecord did not
// write; the scan then ends the segment's valid prefix there.
var errCorruptRecord = errors.New("wal: corrupt record")

// decodeRecord parses one record payload. ext is the master-assigned
// batch sequence the record applied; 0 marks an unsequenced append.
func decodeRecord(payload []byte) (core.Gid, uint64, uint64, []core.DataPoint, error) {
	var head [3]uint64 // gid, seq, ext
	for i := range head {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, 0, 0, nil, errCorruptRecord
		}
		head[i], payload = v, payload[n:]
	}
	gid, seq, ext := head[0], head[1], head[2]
	if gid == 0 || gid > math.MaxInt32 || seq == 0 {
		return 0, 0, 0, nil, errCorruptRecord
	}
	pts, rest, err := core.DecodePoints(payload)
	if err != nil || len(rest) != 0 {
		return 0, 0, 0, nil, errCorruptRecord
	}
	return core.Gid(gid), seq, ext, pts, nil
}

// Append logs one batch of points for gid, assigning the group's next
// sequence number, and makes it durable according to the sync policy.
// ext is the master-assigned batch sequence the batch applies (0 for
// unsequenced local appends); it rides in the record and in later
// checkpoints so the dedup table survives restarts. The caller must
// serialize appends of one group (the database holds the group's shard
// lock), so per-group sequence order equals log order and replay
// reproduces ingestion exactly.
func (w *WAL) Append(gid core.Gid, ext uint64, pts []core.DataPoint) (uint64, error) {
	if m := w.opts.Metrics; m != nil {
		// Observed outside the shard lock so the histogram covers the
		// whole append including lock and group-commit waits.
		t0 := time.Now()
		seq, err := w.append(gid, ext, pts)
		m.AppendSeconds.ObserveSince(t0)
		return seq, err
	}
	return w.append(gid, ext, pts)
}

func (w *WAL) append(gid core.Gid, ext uint64, pts []core.DataPoint) (uint64, error) {
	s := w.shardOf(gid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return 0, ErrClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	if !w.replayed.Load() {
		w.replayed.Store(true)
	}
	seq := s.seqs[gid] + 1
	s.scratch = encodeRecord(s.scratch[:0], gid, seq, ext, pts)
	n := int64(durable.FrameHeader + len(s.scratch))
	if s.size > 0 && s.size+n > w.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			s.err = err
			return 0, err
		}
	}
	s.buf = durable.AppendFrame(s.buf, s.scratch)
	s.size += n
	s.logicalEnd += n
	w.appended.Add(n)
	s.seqs[gid] = seq
	if ext > s.applied[gid] {
		s.applied[gid] = ext
	}
	if seq > s.curMax[gid] {
		s.curMax[gid] = seq
	}
	if w.opts.Sync == SyncAlways {
		// Group commit: wait until this record's bytes are durable, but
		// let one fsync cover every concurrent appender's records instead
		// of paying one fsync per append (commitTo coalesces).
		if err := s.commitTo(s.logicalEnd); err != nil {
			return 0, err
		}
	} else {
		// Bound the in-memory buffer: hand large runs to the OS even
		// under interval/never policies.
		if len(s.buf) >= 1<<16 {
			if err := s.flushBuf(); err != nil {
				s.err = err
				return 0, err
			}
		}
	}
	return seq, nil
}

// flushBuf hands buffered bytes to the OS without fsyncing; they end
// the segment.
func (s *shard) flushBuf() error {
	if len(s.buf) == 0 {
		return nil
	}
	if _, err := s.file.WriteAt(s.buf, s.size-int64(len(s.buf))); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	s.buf = s.buf[:0]
	return nil
}

// flushAndSync drains the buffer and fsyncs the current segment under
// the shard lock. It first waits out any group-commit leader fsyncing
// outside the lock, so rotation and explicit syncs never race it.
func (s *shard) flushAndSync() error {
	s.waitSync()
	if err := s.flushBuf(); err != nil {
		return err
	}
	t0 := time.Now()
	return s.fsynced(s.logicalEnd, t0, s.file.Sync())
}

// fsynced books an fsync that started at t0, returned err and, if it
// succeeded, made the shard durable through logical offset flushed.
// The caller holds s.mu.
func (s *shard) fsynced(flushed int64, t0 time.Time, err error) error {
	s.fsyncs++
	if s.met != nil {
		s.met.FsyncSeconds.ObserveSince(t0)
	}
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	s.synced = max(s.synced, flushed)
	return nil
}

// waitSync blocks until no group-commit leader is fsyncing outside the
// lock. Callers about to rotate, truncate or close the segment file
// must not yank it from under an in-flight fsync. The caller holds
// s.mu.
func (s *shard) waitSync() {
	for s.syncing {
		s.cond.Wait()
	}
}

// commitTo makes the shard durable at least through logical offset
// target, coalescing concurrent SyncAlways appenders onto one fsync
// (group commit). The first arrival becomes the leader: it drains the
// buffer under the lock, then fsyncs with the lock released so later
// appenders keep buffering records — they wait on the condition
// variable and either ride the in-flight fsync (their bytes were
// already flushed) or batch onto the next one. The caller holds s.mu;
// an fsync failure is sticky, failing this and every waiting append.
func (s *shard) commitTo(target int64) error {
	for {
		if s.err != nil {
			return s.err
		}
		if s.synced >= target {
			return nil
		}
		if s.syncing {
			// Group commit in action: this appender's bytes will ride the
			// in-flight (or the next) leader fsync instead of its own.
			if s.met != nil {
				s.met.SyncWaits.Inc()
			}
			s.cond.Wait()
			continue
		}
		// Become the leader for everything appended so far.
		if err := s.flushBuf(); err != nil {
			s.err = err
			s.cond.Broadcast()
			return err
		}
		flushed, file := s.logicalEnd, s.file
		s.syncing = true
		s.mu.Unlock()
		t0 := time.Now()
		err := file.Sync()
		s.mu.Lock()
		s.syncing = false
		if err := s.fsynced(flushed, t0, err); err != nil {
			s.err = err
			s.cond.Broadcast()
			return err
		}
		s.cond.Broadcast()
	}
}

// rotate seals the current segment and opens the next one. The sealed
// file is synced so checkpoint truncation decisions never race the
// page cache.
func (s *shard) rotate() error {
	if err := s.flushAndSync(); err != nil {
		return err
	}
	if err := s.file.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	s.sealed = append(s.sealed, &segmentInfo{index: s.index, size: s.size, maxSeq: s.curMax})
	return s.openSegment(s.index + 1)
}

// AppliedSeqs snapshots the highest master-assigned batch sequence
// applied per group, merging the last checkpoint's table with every
// record logged since — the durable state the database seeds its dedup
// table from on open.
func (w *WAL) AppliedSeqs() map[core.Gid]uint64 {
	w.ckptMu.Lock()
	out := maps.Clone(w.ckptApplied)
	w.ckptMu.Unlock()
	for _, s := range w.shards {
		s.mu.Lock()
		for gid, a := range s.applied {
			if a > out[gid] {
				out[gid] = a
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Seqs snapshots the last assigned sequence of every group the WAL
// has seen, floored by the checkpoint — including groups the current
// configuration no longer knows, so a checkpoint at these marks does
// not let records of orphaned groups (which replay necessarily skips)
// pin their segments forever.
func (w *WAL) Seqs() map[core.Gid]uint64 {
	out := map[core.Gid]uint64{}
	for _, s := range w.shards {
		s.mu.Lock()
		for gid, seq := range s.seqs {
			out[gid] = seq
		}
		s.mu.Unlock()
	}
	return out
}

// Checkpointed reports whether a checkpoint has ever been recorded
// and the segment-store log offset the last one recorded: every store
// record below it holds only points whose sequence the checkpoint
// covers, so recovery truncates the store there and replays the WAL
// tail without duplicating data.
func (w *WAL) Checkpointed() (storeOffset int64, ok bool) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	return w.storeOff, w.hasCkpt
}

// Replay streams every record above the last checkpoint to fn, in
// per-group sequence order (records of one group live in one shard and
// are scanned in write order). It consumes the tail the open scan
// captured, paying no additional I/O, and frees it, so it runs once,
// after Open and before the first Append; any other call returns an
// error.
func (w *WAL) Replay(fn func(gid core.Gid, seq, ext uint64, pts []core.DataPoint) error) error {
	if w.replayed.Swap(true) {
		return errors.New("wal: Replay runs once, after Open and before any Append")
	}
	w.ckptMu.Lock()
	ckpt := w.ckptSeqs
	w.ckptMu.Unlock()
	tail := w.tail
	w.tail = nil
	for _, r := range tail {
		// Re-filter against the current checkpoint: an anchor checkpoint
		// written between Open and Replay may have truncated captured
		// records away.
		if r.seq <= ckpt[r.gid] {
			continue
		}
		if err := fn(r.gid, r.seq, r.ext, r.pts); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint durably records that every point with sequence at or
// below seqs[gid] has been applied and synced by the segment store
// (whose log now ends at storeOffset), then — only once the new
// checkpoint's directory entry is durable — deletes or truncates WAL
// segments wholly below the mark. Sequences only ratchet upward;
// groups absent from seqs keep their previous mark. The applied
// master-sequence table rides in the same checkpoint, so dedup marks
// of truncated records survive the truncation.
func (w *WAL) Checkpoint(seqs map[core.Gid]uint64, storeOffset int64) error {
	// Snapshot the applied table before taking ckptMu (lock order:
	// shard locks never nest inside ckptMu elsewhere either).
	applied := w.AppliedSeqs()
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	merged := maps.Clone(w.ckptSeqs)
	for gid, seq := range seqs {
		if seq > merged[gid] {
			merged[gid] = seq
		}
	}
	for gid, a := range w.ckptApplied {
		if a > applied[gid] {
			applied[gid] = a
		}
	}
	if err := durable.Replace(w.fsys, filepath.Join(w.opts.Dir, checkpointName), encodeCheckpoint(storeOffset, merged, applied)); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	w.appended.Store(0)
	w.ckptSeqs = merged
	w.ckptApplied = applied
	w.storeOff = storeOffset
	w.hasCkpt = true
	for _, s := range w.shards {
		if err := s.truncateBelow(merged); err != nil {
			return err
		}
	}
	return nil
}

// truncateBelow removes sealed segments wholly covered by the
// checkpoint and resets the current segment in place when it is.
func (s *shard) truncateBelow(ckpt map[core.Gid]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitSync()
	// keep is a fresh slice, never aliasing s.sealed: a Remove failing
	// mid-loop must leave s.sealed listing exactly the surviving
	// segments (kept ones plus not-yet-visited), so the next checkpoint
	// can retry instead of tripping over shifted or duplicated entries.
	keep := make([]*segmentInfo, 0, len(s.sealed))
	for i, seg := range s.sealed {
		if covered(seg.maxSeq, ckpt) {
			if err := s.fsys.Remove(s.segmentPath(seg.index)); err != nil {
				s.sealed = append(keep, s.sealed[i:]...)
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		keep = append(keep, seg)
	}
	s.sealed = keep
	if s.file != nil && s.size > 0 && len(s.curMax) > 0 && covered(s.curMax, ckpt) {
		s.buf = s.buf[:0]
		if err := s.file.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		s.size = 0
		// The dropped buffer's bytes are settled by the checkpoint, not
		// by a write; advance the durability mark so no group-commit
		// waiter spins on bytes that will never be written.
		s.synced = s.logicalEnd
		s.curMax = map[core.Gid]uint64{}
	}
	return nil
}

// covered reports whether every sequence in maxSeq is at or below the
// checkpoint mark of its group.
func covered(maxSeq, ckpt map[core.Gid]uint64) bool {
	for gid, seq := range maxSeq {
		if ckpt[gid] < seq {
			return false
		}
	}
	return true
}

// encodeCheckpoint returns a checkpoint file: one frame carrying the
// store offset, the per-group WAL sequence marks and the per-group
// applied master-sequence table.
func encodeCheckpoint(storeOff int64, seqs, applied map[core.Gid]uint64) []byte {
	payload := binary.AppendVarint(nil, storeOff)
	payload = appendSeqMap(payload, seqs)
	return durable.AppendFrame(nil, appendSeqMap(payload, applied))
}

// appendSeqMap encodes one per-group sequence map in ascending Gid
// order (deterministic bytes for identical state).
func appendSeqMap(payload []byte, seqs map[core.Gid]uint64) []byte {
	payload = binary.AppendUvarint(payload, uint64(len(seqs)))
	gids := make([]core.Gid, 0, len(seqs))
	for gid := range seqs {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		payload = binary.AppendUvarint(payload, uint64(gid))
		payload = binary.AppendUvarint(payload, seqs[gid])
	}
	return payload
}

// errCorruptCheckpoint refuses a checkpoint encodeCheckpoint did not
// write.
var errCorruptCheckpoint = errors.New("wal: corrupt checkpoint")

// readSeqMap decodes one per-group sequence map, returning the rest of
// the payload.
func readSeqMap(payload []byte) (map[core.Gid]uint64, []byte, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)) { // each entry takes 2 bytes or more
		return nil, nil, errCorruptCheckpoint
	}
	payload = payload[n:]
	seqs := make(map[core.Gid]uint64, count)
	for i := uint64(0); i < count; i++ {
		gid, n := binary.Uvarint(payload)
		seq, m := binary.Uvarint(payload[max(n, 0):])
		if n <= 0 || m <= 0 {
			return nil, nil, errCorruptCheckpoint
		}
		payload = payload[n+m:]
		seqs[core.Gid(gid)] = seq
	}
	return seqs, payload, nil
}

// loadCheckpoint reads the last durable checkpoint, if any.
func (w *WAL) loadCheckpoint() error {
	data, err := durable.ReadFile(w.fsys, filepath.Join(w.opts.Dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.storeOff, w.ckptSeqs, w.ckptApplied, err = decodeCheckpoint(data)
	w.hasCkpt = err == nil
	return err
}

// decodeCheckpoint parses a checkpoint file: exactly one frame.
func decodeCheckpoint(data []byte) (storeOff int64, seqs, applied map[core.Gid]uint64, err error) {
	frames := 0
	// A bytes.Reader cannot fail, so Scan cannot either.
	valid, _ := durable.Scan(bytes.NewReader(data), int64(len(data)), func(payload []byte) error {
		frames++
		var n int
		if storeOff, n = binary.Varint(payload); n <= 0 {
			err = errCorruptCheckpoint
			return err
		}
		if seqs, payload, err = readSeqMap(payload[n:]); err == nil {
			applied, _, err = readSeqMap(payload)
		}
		return err
	})
	if err == nil && (frames != 1 || valid != int64(len(data))) {
		err = errCorruptCheckpoint
	}
	return storeOff, seqs, applied, err
}

// Sync drains every shard's buffer and fsyncs its current segment,
// regardless of policy — the explicit durability point Flush uses.
func (w *WAL) Sync() error {
	for _, s := range w.shards {
		s.mu.Lock()
		if s.file == nil {
			s.mu.Unlock()
			return ErrClosed
		}
		if err := s.flushAndSync(); err != nil {
			s.err = err
			s.mu.Unlock()
			return err
		}
		s.mu.Unlock()
	}
	return nil
}

// syncLoop is the SyncInterval background fsyncer.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	ticker := time.NewTicker(w.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			for _, s := range w.shards {
				s.mu.Lock()
				if s.file != nil && s.synced < s.logicalEnd && s.err == nil {
					if err := s.flushAndSync(); err != nil {
						s.err = err
					}
				}
				s.mu.Unlock()
			}
		}
	}
}

// Close syncs and releases the WAL; further appends return ErrClosed.
func (w *WAL) Close() error {
	if w.closed.Swap(true) {
		return ErrClosed
	}
	close(w.stop)
	<-w.syncDone
	err := w.Sync()
	w.closeShards()
	return err
}

func (w *WAL) closeShards() {
	for _, s := range w.shards {
		s.mu.Lock()
		s.waitSync()
		if s.file != nil {
			s.file.Close()
			s.file = nil
		}
		s.mu.Unlock()
	}
}

// BytesSinceCheckpoint reports how many record bytes have been
// appended since the last checkpoint — the write-side backpressure
// signal: a value racing ahead of the checkpoint cadence means flushes
// are not keeping up with ingestion. With a memory-backed store the
// WAL is never checkpoint-truncated, so the counter grows with the
// journal.
func (w *WAL) BytesSinceCheckpoint() int64 { return w.appended.Load() }

// FsyncCount reports the total number of fsyncs issued across all
// shards. The group-commit benchmark divides it by points appended:
// under SyncAlways with concurrent appenders the ratio drops below one
// as appends coalesce onto shared fsyncs.
func (w *WAL) FsyncCount() int64 {
	var n int64
	for _, s := range w.shards {
		s.mu.Lock()
		n += s.fsyncs
		s.mu.Unlock()
	}
	return n
}

// SizeBytes reports the WAL's current on-log volume (sealed plus
// active segments, including buffered bytes) for observability.
func (w *WAL) SizeBytes() int64 {
	var total int64
	for _, s := range w.shards {
		s.mu.Lock()
		total += s.size
		for _, seg := range s.sealed {
			total += seg.size
		}
		s.mu.Unlock()
	}
	return total
}
