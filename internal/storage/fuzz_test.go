package storage

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"modelardb/internal/core"
)

// FuzzFileStoreRecover drives the segment log's open-time recovery
// with arbitrary log bytes, held in memory: opening must not panic,
// must truncate to a decodable prefix of the input — or refuse a log
// of per-segment records with ErrLegacyLog and leave it whole — and
// every surviving segment must scan cleanly. The seed corpus mirrors
// the torn-tail sweep fixtures: a real five-block log, truncations at
// varied offsets, a mid-block bit flip, a tail frame whose header
// claims a gigabyte the log does not have, and a bulk write of three
// groups' masked, overlapping and apart segments, whole and with its
// last block torn.
func FuzzFileStoreRecover(f *testing.F) {
	seed := &memLog{}
	s, err := openLog(seed, 0, testMembers, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900))); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	full := seed.data
	f.Add(full)
	for cut := 1; cut < len(full); cut += len(full)/16 + 1 {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Add(append(append([]byte(nil), full...), hugeFrame...))
	f.Add([]byte{})
	bulk := bulkLog(f)
	f.Add(bulk)
	f.Add(bulk[:len(bulk)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		log := &memLog{data: bytes.Clone(data)}
		st, err := openLog(log, int64(len(data)), testMembers, 1)
		if errors.Is(err, ErrLegacyLog) {
			if !bytes.Equal(log.data, data) {
				t.Fatal("refusing a legacy log changed it")
			}
			return
		}
		if err != nil {
			// recover only errors on I/O, never on corrupt records.
			t.Fatalf("opening the fuzz log: %v", err)
		}
		defer st.Close()
		if !bytes.HasPrefix(data, log.data) {
			t.Fatalf("recovery left %d bytes that are not a prefix of the %d-byte input", len(log.data), len(data))
		}
		// Every segment recovery kept must decode and scan cleanly.
		var scanned int64
		if err := st.Scan(context.Background(), AllTime(), func(*core.Segment) error {
			scanned++
			return nil
		}); err != nil {
			t.Fatalf("scanning the recovered log: %v", err)
		}
		count, err := st.Count()
		if err != nil {
			t.Fatal(err)
		}
		if scanned != count {
			t.Fatalf("scanned %d segments, Count reports %d", scanned, count)
		}
	})
}

// bulkSegments are one bulk write of three groups of testMembers:
// masked, overlapping and apart segments beside a contiguous run.
func bulkSegments() []*core.Segment {
	segs := []*core.Segment{
		makeSegment(1, 0, 900),
		makeSegment(1, 1000, 1900),
		makeSegment(1, 1500, 2400),
		makeSegment(1, 7000, 7000),
		makeSegment(2, 0, 900),
		makeSegment(2, 5000, 5900),
		makeSegment(3, 100, 200),
	}
	segs[1].GapTids = []core.Tid{2}
	segs[3].GapTids = []core.Tid{1}
	return segs
}

// bulkLog is bulkSegments written by one Flush: one block per group.
func bulkLog(tb testing.TB) []byte {
	log := &memLog{}
	s, err := openLog(log, 0, testMembers, 100)
	if err != nil {
		tb.Fatal(err)
	}
	for _, seg := range bulkSegments() {
		if err := s.Insert(seg); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return log.data
}

// TestFileStoreTornBlockLosesWholeBlock: a bulk write torn anywhere in
// its last block loses that block's segments, all of them, and keeps
// every segment of the blocks before it.
func TestFileStoreTornBlockLosesWholeBlock(t *testing.T) {
	full := bulkLog(t)
	segs := bulkSegments()
	want := keysOf(model(segs[:len(segs)-1], AllTime()))
	whole, err := openLog(&memLog{data: bytes.Clone(full)}, int64(len(full)), testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(scanAll(t, whole, AllTime())); !slices.Equal(got, keysOf(model(segs, AllTime()))) {
		t.Fatalf("the whole log scans as\n%v", got)
	}
	// The last block holds group 3's one segment: a frame header, a
	// 5-byte block header and a 7-byte entry.
	last := len(full) - 20
	for cut := last + 1; cut < len(full); cut++ {
		log := &memLog{data: bytes.Clone(full[:cut])}
		s, err := openLog(log, int64(cut), testMembers, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(scanAll(t, s, AllTime())); !slices.Equal(got, want) {
			t.Fatalf("cut at %d scans as\n%v\nwant\n%v", cut, got, want)
		}
		if len(log.data) != last {
			t.Fatalf("cut at %d: recovery kept %d bytes, want the %d before the torn block", cut, len(log.data), last)
		}
	}
}
