package storage

import (
	"testing"

	"modelardb/internal/core"
)

// TestMemoSlotsLiveWithTheIndex: every segment a scan reads carries its
// index entry's memo slot, distinct per segment, so what one scan
// stores the next scan loads; rebuilding the index — TruncateLog or a
// close and reopen — gives every segment an empty slot.
func TestMemoSlotsLiveWithTheIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 4)
	if err != nil {
		t.Fatal(err)
	}
	var half int64 // the log's length after the first three ticks' blocks
	for i := int64(0); i < 6; i++ {
		for _, gid := range []core.Gid{1, 2} {
			if err := s.Insert(makeSegment(gid, i*1000, i*1000+900)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			half = s.LogOffset()
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// fill stores a memo of one position, the segment's EndTime, in
	// every slot, after checking that the slots are distinct and empty.
	fill := func(s *FileStore) {
		t.Helper()
		seen := map[*core.Memo]bool{}
		for _, seg := range scanAll(t, s, AllTime()) {
			if seg.Memo == nil || seen[seg.Memo] {
				t.Fatalf("segment (gid=%d, end=%d): memo slot %p missing or shared", seg.Gid, seg.EndTime, seg.Memo)
			}
			seen[seg.Memo] = true
			if seg.Memo.Load(1) != nil {
				t.Fatalf("segment (gid=%d, end=%d): slot filled before any store", seg.Gid, seg.EndTime)
			}
			seg.Memo.Store([]float64{float64(seg.EndTime), 0, 0})
		}
	}
	// filled reports how many scanned segments load their own memo.
	filled := func(s *FileStore) int {
		t.Helper()
		n := 0
		for _, seg := range scanAll(t, s, AllTime()) {
			if m := seg.Memo.Load(1); m != nil {
				if m[0] != float64(seg.EndTime) {
					t.Fatalf("segment (gid=%d, end=%d) loads another segment's memo %v", seg.Gid, seg.EndTime, m)
				}
				n++
			}
		}
		return n
	}
	fill(s)
	if got := filled(s); got != 12 {
		t.Fatalf("%d of 12 segments load their memo on the next scan", got)
	}
	if m := scanAll(t, s, AllTime())[0].Memo; m.Load(2) != nil {
		t.Fatal("a memo of one position loads as one of two")
	}

	// Truncating to the first flush's blocks keeps 6 segments, none
	// with a memo.
	if err := s.TruncateLog(half); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 6 {
		t.Fatalf("count after TruncateLog = %d, want 6", n)
	}
	if got := filled(s); got != 0 {
		t.Fatalf("%d segments keep a memo after TruncateLog", got)
	}
	fill(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenFileStore(dir, testMembers, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := filled(s); got != 0 {
		t.Fatalf("%d segments keep a memo after a reopen", got)
	}
	fill(s)
}
