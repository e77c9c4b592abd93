package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/durable"
)

func pts(tid core.Tid, base int64, n int) []core.DataPoint {
	out := make([]core.DataPoint, n)
	for i := range out {
		out[i] = core.DataPoint{Tid: tid, TS: base + int64(i)*100, Value: float32(i)}
	}
	return out
}

type replayed struct {
	gid core.Gid
	seq uint64
	pts []core.DataPoint
}

func collectReplay(t *testing.T, w *WAL) []replayed {
	t.Helper()
	var out []replayed
	if err := w.Replay(func(gid core.Gid, seq, _ uint64, p []core.DataPoint) error {
		cp := make([]core.DataPoint, len(p))
		copy(cp, p)
		out = append(out, replayed{gid, seq, cp})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"", "always", "interval", "never"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Errorf("ParsePolicy(%q) = %v", ok, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy(sometimes) must fail")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := []replayed{
		{1, 1, pts(1, 0, 3)},
		{2, 1, pts(3, 0, 2)},
		{1, 2, pts(2, 1000, 1)},
		{2, 2, pts(3, 2000, 4)},
	}
	for _, r := range want {
		seq, err := w.Append(r.gid, 0, r.pts)
		if err != nil {
			t.Fatal(err)
		}
		if seq != r.seq {
			t.Fatalf("Append(%d) seq = %d, want %d", r.gid, seq, r.seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collectReplay(t, w2)
	// Replay order across groups of one shard is write order; sort-free
	// comparison works because gids 1 and 2 land in different shards
	// and per-shard order is preserved. Compare per group.
	perGroup := func(rs []replayed, gid core.Gid) []replayed {
		var out []replayed
		for _, r := range rs {
			if r.gid == gid {
				out = append(out, r)
			}
		}
		return out
	}
	for _, gid := range []core.Gid{1, 2} {
		if !reflect.DeepEqual(perGroup(got, gid), perGroup(want, gid)) {
			t.Fatalf("replay group %d = %+v, want %+v", gid, perGroup(got, gid), perGroup(want, gid))
		}
	}
	if w2.Seqs()[1] != 2 || w2.Seqs()[2] != 2 {
		t.Fatalf("Seq after reopen = %d, %d, want 2, 2", w2.Seqs()[1], w2.Seqs()[2])
	}
}

func TestRotationAndCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 64, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(1, 0, pts(1, int64(i*1000), 2)); err != nil {
			t.Fatal(err)
		}
	}
	segs := func() int {
		files, err := w.shardOf(1).listSegments()
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	if n := segs(); n < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", n)
	}
	// Checkpoint half way: segments wholly below seq 10 disappear,
	// records above survive and replay after a reopen.
	if err := w.Checkpoint(map[core.Gid]uint64{1: 10}, 0); err != nil {
		t.Fatal(err)
	}
	after := segs()
	if after >= 20 {
		t.Fatalf("checkpoint did not truncate: %d segments", after)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = Open(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 64}); err != nil {
		t.Fatal(err)
	}
	got := collectReplay(t, w)
	if len(got) != 10 {
		t.Fatalf("replay after checkpoint = %d records, want 10", len(got))
	}
	if got[0].seq != 11 {
		t.Fatalf("first replayed seq = %d, want 11", got[0].seq)
	}
	// Checkpoint everything: the shard's log empties entirely.
	if err := w.Checkpoint(map[core.Gid]uint64{1: 20}, 0); err != nil {
		t.Fatal(err)
	}
	if n := segs(); n != 1 || w.SizeBytes() != 0 {
		t.Fatalf("after a full checkpoint: %d segments, %d bytes; want one empty segment", n, w.SizeBytes())
	}
	// New appends continue above the checkpoint, never reusing seqs.
	seq, err := w.Append(1, 0, pts(1, 99000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 21 {
		t.Fatalf("seq after full checkpoint = %d, want 21", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The sequence floor survives reopen through the checkpoint file.
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collectReplay(t, w2); len(got) != 1 || got[0].seq != 21 {
		t.Fatalf("replay after reopen = %+v, want one record with seq 21", got)
	}
}

func TestTornTailSweep(t *testing.T) {
	// Cut the shard's log at every byte boundary inside the last record
	// and verify open truncates exactly to the intact prefix, like the
	// segment store's own log recovery.
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const records = 5
	var sizes []int64
	seg := filepath.Join(w.shardOf(1).dir, fmt.Sprintf("%016d%s", 1, segmentSuffix))
	for i := 0; i < records; i++ {
		if _, err := w.Append(1, 0, pts(1, int64(i*1000), 2)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := sizes[records-1] - 1; cut >= sizes[records-2]; cut-- {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("open at cut %d: %v", cut, err)
		}
		got := collectReplay(t, w)
		if len(got) != records-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), records-1)
		}
		// The torn tail is truncated away, and the WAL stays appendable:
		// the next record lands where the torn one was.
		if seq, err := w.Append(1, 0, pts(1, 99000, 1)); err != nil || seq != records {
			t.Fatalf("cut %d: append after truncation = seq %d, %v", cut, seq, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptMiddleRecordDropsTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	seg := filepath.Join(w.shardOf(1).dir, fmt.Sprintf("%016d%s", 1, segmentSuffix))
	for i := 0; i < 5; i++ {
		if _, err := w.Append(1, 0, pts(1, int64(i*1000), 2)); err != nil {
			t.Fatal(err)
		}
		info, _ := os.Stat(seg)
		sizes = append(sizes, info.Size())
	}
	w.Close()
	full, _ := os.ReadFile(seg)
	full[sizes[1]+durable.FrameHeader+1] ^= 0xFF // flip a bit in record 3's payload
	os.WriteFile(seg, full, 0o644)
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collectReplay(t, w2); len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (up to the corruption)", len(got))
	}
}

func TestCheckpointStoreOffsetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Checkpointed(); ok {
		t.Fatal("fresh WAL must have no checkpoint")
	}
	if err := w.Checkpoint(map[core.Gid]uint64{7: 3}, 12345); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if off, ok := w2.Checkpointed(); !ok || off != 12345 {
		t.Fatalf("checkpoint = %v offset %d, want true 12345", ok, off)
	}
	if w2.Seqs()[7] != 3 {
		t.Fatalf("Seq(7) = %d, want checkpoint floor 3", w2.Seqs()[7])
	}
}

func TestShardCountPinnedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Shards: 2, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(5, 0, pts(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Reopening with a different shard count must keep the persisted
	// mapping, or old records would replay from the wrong shard.
	w2, err := Open(Options{Dir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(w2.shards) != 2 {
		t.Fatalf("shards after reopen = %d, want pinned 2", len(w2.shards))
	}
	if got := collectReplay(t, w2); len(got) != 1 || got[0].gid != 5 {
		t.Fatalf("replay = %+v, want the gid-5 record", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append(1, 0, pts(1, 0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir must fail")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Fatal("Open with unknown policy must fail")
	}
}

func TestAppliedSeqsSurviveReopenAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 applies master batches 1..3, group 2 applies 7; group 3
	// appends unsequenced (ext 0) and must stay absent from the table.
	for ext := uint64(1); ext <= 3; ext++ {
		if _, err := w.Append(1, ext, pts(1, int64(ext*1000), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(2, 7, pts(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(3, 0, pts(5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	want := map[core.Gid]uint64{1: 3, 2: 7}
	if got := w.AppliedSeqs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppliedSeqs = %v, want %v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the table rebuilds from the records alone.
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.AppliedSeqs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppliedSeqs after reopen = %v, want %v", got, want)
	}
	// Checkpoint everything: the records vanish but the applied table
	// must survive through the checkpoint file.
	if err := w2.Checkpoint(map[core.Gid]uint64{1: 3, 2: 1, 3: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got := collectReplay(t, w2); len(got) != 0 {
		t.Fatalf("replay after full checkpoint = %d records, want 0", len(got))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := w3.AppliedSeqs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppliedSeqs after checkpoint truncation = %v, want %v", got, want)
	}
}

func TestReplayExtSeqRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, 42, pts(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var exts []uint64
	if err := w2.Replay(func(_ core.Gid, _, ext uint64, _ []core.DataPoint) error {
		exts = append(exts, ext)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0] != 42 {
		t.Fatalf("replayed ext seqs = %v, want [42]", exts)
	}
}

// TestReplayTwiceMatches: Replay hands out the tail the open scan
// captured exactly once. A second Replay, or one after an Append, is an
// error; reopening replays the same records again.
func TestReplayTwiceMatches(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(core.Gid(i%3+1), uint64(i+1), pts(1, int64(i*1000), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Replay(func(core.Gid, uint64, uint64, []core.DataPoint) error { return nil }); err == nil {
		t.Fatal("Replay after Append succeeded, want an error")
	}
	w.Close()
	var replays [2][]replayed
	for i := range replays {
		w, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		replays[i] = collectReplay(t, w)
		if err := w.Replay(func(core.Gid, uint64, uint64, []core.DataPoint) error { return nil }); err == nil {
			t.Fatal("second Replay succeeded, want an error")
		}
		w.Close()
	}
	if len(replays[0]) != 10 || !reflect.DeepEqual(replays[0], replays[1]) {
		t.Fatalf("replay mismatch: first %d records, second %d", len(replays[0]), len(replays[1]))
	}
}

// TestOpenRefusesV1WAL: a directory written by the pre-applied-field
// WAL (walmeta holds only the shard count) is refused with
// ErrLegacyFormat, and nothing in it is touched.
func TestOpenRefusesV1WAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte("1"), 0o644); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-000")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A v1 record: gid 1, seq 1, one point, no applied field.
	seg := filepath.Join(shardDir, fmt.Sprintf("%016d%s", 1, segmentSuffix))
	log := durable.AppendFrame(nil, []byte{1, 1, 1, 1, 0, 0, 0, 128, 63})
	if err := os.WriteFile(seg, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open of a v1 directory = %v, want ErrLegacyFormat", err)
	}
	if got, err := os.ReadFile(seg); err != nil || !reflect.DeepEqual(got, log) {
		t.Fatalf("v1 segment changed by the refused Open: %v", err)
	}
}

// TestGroupCommitCoalescesFsyncs: concurrent SyncAlways appends to one
// shard must share fsyncs (group commit) rather than paying one fsync
// per append, while every acknowledged batch still survives a crash.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gid := core.Gid(g + 1)
			for i := 0; i < batches; i++ {
				if _, err := w.Append(gid, 0, pts(core.Tid(g+1), int64(i)*1000, 2)); err != nil {
					t.Errorf("append gid %d: %v", gid, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	const total = writers * batches
	fsyncs := w.FsyncCount()
	if fsyncs <= 0 {
		t.Fatal("SyncAlways appends recorded no fsyncs")
	}
	if fsyncs >= total {
		t.Fatalf("%d appends cost %d fsyncs; group commit must coalesce some", total, fsyncs)
	}
	// Crash: no Close. Every acknowledged append was fsynced (alone or
	// as a group-commit follower), so a fresh open replays all of them.
	reopened, err := Open(Options{Dir: dir, Sync: SyncAlways, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	perGid := map[core.Gid]int{}
	if err := reopened.Replay(func(gid core.Gid, _, _ uint64, p []core.DataPoint) error {
		perGid[gid] += len(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		if got := perGid[core.Gid(g+1)]; got != batches*2 {
			t.Errorf("gid %d replayed %d points, want %d", g+1, got, batches*2)
		}
	}
	w.Close()
}
