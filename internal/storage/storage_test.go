package storage

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/durable"
	"modelardb/internal/models"
)

// testMembers is a two-group layout: group 1 = {1,2}, group 2 = {3}.
func testMembers(gid core.Gid) []core.Tid {
	if gid == 1 {
		return []core.Tid{1, 2}
	}
	return []core.Tid{3}
}

func makeSegment(gid core.Gid, start, end int64) *core.Segment {
	return &core.Segment{
		Gid:       gid,
		StartTime: start,
		EndTime:   end,
		SI:        100,
		MID:       models.MidPMC,
		Params:    []byte{0, 0, 40, 66}, // float32 42
	}
}

// storeFactory builds the store over one kind of log for shared test
// coverage.
type storeFactory struct {
	name string
	make func(t *testing.T) SegmentStore
}

// factories opens the store over a log in memory and over a file.
func factories() []storeFactory {
	open := func(t *testing.T, dir string) SegmentStore {
		s, err := OpenFileStore(dir, testMembers, 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []storeFactory{
		{"mem", func(t *testing.T) SegmentStore { return open(t, "") }},
		{"file", func(t *testing.T) SegmentStore { return open(t, t.TempDir()) }},
	}
}

func TestStoreInsertScan(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			for i := 0; i < 10; i++ {
				start := int64(i * 1000)
				if err := s.Insert(makeSegment(1, start, start+900)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Insert(makeSegment(2, 0, 900)); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			n, err := s.Count()
			if err != nil || n != 11 {
				t.Fatalf("Count = %d, %v; want 11", n, err)
			}
			var got []*core.Segment
			if err := s.Scan(context.Background(), AllTime(1), func(seg *core.Segment) error {
				got = append(got, seg)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 10 {
				t.Fatalf("scan group 1 = %d segments, want 10", len(got))
			}
			for i := 1; i < len(got); i++ {
				if got[i].EndTime < got[i-1].EndTime {
					t.Fatal("scan must be ordered by EndTime")
				}
			}
		})
	}
}

func TestStoreTimePushdown(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			for i := 0; i < 100; i++ {
				start := int64(i * 1000)
				if err := s.Insert(makeSegment(1, start, start+900)); err != nil {
					t.Fatal(err)
				}
			}
			var got []*core.Segment
			if err := s.Scan(context.Background(), TimeRange(25_000, 49_999, 1), func(seg *core.Segment) error {
				got = append(got, seg)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 25 {
				t.Fatalf("time-ranged scan = %d segments, want 25", len(got))
			}
			for _, seg := range got {
				if seg.EndTime < 25_000 || seg.StartTime > 49_999 {
					t.Fatalf("segment [%d, %d] outside filter", seg.StartTime, seg.EndTime)
				}
			}
		})
	}
}

func TestStoreScanAllGroups(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			s.Insert(makeSegment(2, 0, 900))
			s.Insert(makeSegment(1, 0, 900))
			var gids []core.Gid
			if err := s.Scan(context.Background(), Filter{From: minTime, To: maxTime}, func(seg *core.Segment) error {
				gids = append(gids, seg.Gid)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(gids) != 2 || gids[0] != 1 || gids[1] != 2 {
				t.Fatalf("gids = %v, want [1 2]", gids)
			}
		})
	}
}

func TestStoreScanErrorAborts(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			for i := 0; i < 5; i++ {
				s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
			}
			calls := 0
			err := s.Scan(context.Background(), AllTime(1), func(seg *core.Segment) error {
				calls++
				return fmt.Errorf("boom")
			})
			if err == nil || calls != 1 {
				t.Fatalf("err = %v after %d calls, want abort on first", err, calls)
			}
		})
	}
}

func TestStoreGapsSurviveRoundTrip(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			seg := makeSegment(1, 0, 900)
			seg.GapTids = []core.Tid{2}
			if err := s.Insert(seg); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			var got *core.Segment
			s.Scan(context.Background(), AllTime(1), func(seg *core.Segment) error { got = seg; return nil })
			if got == nil || len(got.GapTids) != 1 || got.GapTids[0] != 2 {
				t.Fatalf("gaps = %+v, want [2]", got)
			}
		})
	}
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir, testMembers, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, _ := s2.Count()
	if n != 20 {
		t.Fatalf("Count after reopen = %d, want 20", n)
	}
	count := 0
	s2.Scan(context.Background(), AllTime(1), func(seg *core.Segment) error { count++; return nil })
	if count != 20 {
		t.Fatalf("scan after reopen = %d, want 20", count)
	}
}

func TestFileStoreCrashRecovery(t *testing.T) {
	// Failure injection: truncate the log at every possible byte
	// boundary of the tail record and verify the store recovers the
	// intact prefix without error.
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recordSize := len(full) / 5
	for cut := len(full) - 1; cut > len(full)-recordSize; cut-- {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir, testMembers, 1)
		if err != nil {
			t.Fatalf("recovery at cut %d failed: %v", cut, err)
		}
		n, _ := s.Count()
		if n != 4 {
			t.Fatalf("cut %d: recovered %d segments, want 4", cut, n)
		}
		s.Close()
	}
}

func TestFileStoreCorruptMiddleRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
	}
	s.Close()
	path := filepath.Join(dir, logName)
	full, _ := os.ReadFile(path)
	// Flip a bit in the third record's payload.
	full[2*(len(full)/5)+durable.FrameHeader+1] ^= 0xFF
	os.WriteFile(path, full, 0o644)
	s2, err := OpenFileStore(dir, testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, _ := s2.Count()
	if n != 2 {
		t.Fatalf("recovered %d segments, want 2 (up to the corruption)", n)
	}
}

func TestFileStoreBulkBuffer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
	}
	// Nothing written yet (buffered), but Count and Scan see the data.
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("log size = %d before flush, want 0", info.Size())
	}
	n, _ := s.Count()
	if n != 10 {
		t.Fatalf("Count = %d, want 10 including buffered", n)
	}
	count := 0
	s.Scan(context.Background(), AllTime(1), func(*core.Segment) error { count++; return nil })
	if count != 10 {
		t.Fatalf("Scan = %d, want 10 (scan flushes the buffer)", count)
	}
	info, _ = os.Stat(filepath.Join(dir, logName))
	if info.Size() == 0 {
		t.Fatal("scan must have flushed the buffer to the log")
	}
}

func TestFileStoreAutoFlushAtBulkSize(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir, testMembers, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900)))
	}
	info, _ := os.Stat(filepath.Join(dir, logName))
	if info.Size() == 0 {
		t.Fatal("bulk size reached must trigger a write")
	}
}

func TestStoreSizeBytes(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			s := f.make(t)
			defer s.Close()
			seg := makeSegment(1, 0, 900)
			want := int64(len(seg.Encode(testMembers(1))))
			s.Insert(seg)
			got, err := s.SizeBytes()
			if err != nil || got != want {
				t.Fatalf("SizeBytes = %d, %v; want %d", got, err, want)
			}
		})
	}
}

// TestStoreQuickEquivalence: on both logs, every filtered scan of a
// random workload returns what the brute-force model does.
func TestStoreQuickEquivalence(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := fac.make(t)
				defer s.Close()
				var inserted []*core.Segment
				for i := rng.Intn(50) + 1; i > 0; i-- {
					start := int64(rng.Intn(100)) * 1000
					seg := makeSegment(core.Gid(rng.Intn(2)+1), start, start+900)
					inserted = append(inserted, seg)
					if err := s.Insert(seg); err != nil {
						t.Fatal(err)
					}
				}
				from := int64(rng.Intn(100)) * 500
				filter := TimeRange(from, from+int64(rng.Intn(100))*1000, core.Gid(rng.Intn(2)+1))
				return slices.Equal(keysOf(scanAll(t, s, filter)), keysOf(model(inserted, filter)))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMetaSaveLoad(t *testing.T) {
	dir := t.TempDir()
	meta := &MetaFile{
		Dimensions: []dims.Dimension{{Name: "Location", Levels: []string{"Country", "Park"}}},
		Series: []SeriesMeta{
			{Tid: 1, SI: 100, Gid: 1, Scaling: 1, Source: "a.gz",
				Members: map[string][]string{"Location": {"DK", "Aalborg"}}},
		},
		Correlations: []string{"Location 1"},
	}
	if err := SaveMeta(durable.OS{}, dir, meta); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadMeta(durable.OS{}, dir)
	if err != nil || !ok {
		t.Fatalf("LoadMeta: %v, ok=%v", err, ok)
	}
	if len(got.Series) != 1 || got.Series[0].Tid != 1 || got.Series[0].Members["Location"][1] != "Aalborg" {
		t.Fatalf("loaded meta = %+v", got)
	}
	if len(got.Correlations) != 1 || got.Correlations[0] != "Location 1" {
		t.Fatalf("correlations = %v", got.Correlations)
	}
}

func TestLoadMetaMissing(t *testing.T) {
	_, ok, err := LoadMeta(durable.OS{}, t.TempDir())
	if err != nil || ok {
		t.Fatalf("LoadMeta on empty dir = ok=%v err=%v, want absent", ok, err)
	}
}
