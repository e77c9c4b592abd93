package storage

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"modelardb/internal/core"
)

// scanAll collects a Scan's segments.
func scanAll(t *testing.T, s SegmentStore, f Filter) []*core.Segment {
	t.Helper()
	var out []*core.Segment
	if err := s.Scan(context.Background(), f, func(seg *core.Segment) error {
		out = append(out, seg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// chunkAll collects a ScanChunks' segments, asserting the size bound.
func chunkAll(t *testing.T, s SegmentStore, f Filter, chunkSize int) []*core.Segment {
	t.Helper()
	var out []*core.Segment
	err := s.ScanChunks(context.Background(), f, chunkSize, func(c Chunk) error {
		segs, err := c.Segments(nil)
		if err != nil {
			return err
		}
		if len(segs) == 0 || len(segs) > chunkSize {
			t.Fatalf("chunk of %d segments violates bound %d", len(segs), chunkSize)
		}
		out = append(out, segs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanChunksMatchesScan: for random segment sets, random filters
// and random chunk sizes, concatenating all chunks must reproduce the
// plain scan on both store kinds.
func TestScanChunksMatchesScan(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := fac.make(t)
				defer s.Close()
				n := rng.Intn(60) + 1
				for i := 0; i < n; i++ {
					gid := core.Gid(rng.Intn(2) + 1)
					start := int64(rng.Intn(10000))
					if err := s.Insert(makeSegment(gid, start, start+int64(rng.Intn(2000)))); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 10; trial++ {
					var filter Filter
					switch rng.Intn(3) {
					case 0:
						filter = AllTime()
					case 1:
						filter = AllTime(core.Gid(rng.Intn(3) + 1))
					default:
						from := int64(rng.Intn(12000))
						filter = TimeRange(from, from+int64(rng.Intn(6000)))
					}
					want := scanAll(t, s, filter)
					got := chunkAll(t, s, filter, rng.Intn(9)+1)
					if len(want) != len(got) {
						t.Logf("filter %+v: scan %d segments, chunks %d", filter, len(want), len(got))
						return false
					}
					for i := range want {
						if want[i].Gid != got[i].Gid || want[i].EndTime != got[i].EndTime ||
							want[i].StartTime != got[i].StartTime {
							t.Logf("segment %d differs: %+v vs %+v", i, want[i], got[i])
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChunksMaterializeConcurrently: chunks collected up front must
// stay valid and decode correctly from many goroutines at once — the
// contract the parallel query executor relies on.
func TestChunksMaterializeConcurrently(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			s := fac.make(t)
			defer s.Close()
			for i := 0; i < 64; i++ {
				start := int64(i * 1000)
				if err := s.Insert(makeSegment(core.Gid(i%2+1), start, start+900)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			var chunks []Chunk
			if err := s.ScanChunks(context.Background(), AllTime(), 8, func(c Chunk) error {
				chunks = append(chunks, c)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			counts := make([]int, len(chunks))
			for i, c := range chunks {
				wg.Add(1)
				go func(i int, c Chunk) {
					defer wg.Done()
					segs, err := c.Segments(nil)
					if err != nil {
						t.Errorf("chunk %d: %v", i, err)
						return
					}
					counts[i] = len(segs)
				}(i, c)
			}
			wg.Wait()
			total := 0
			for _, n := range counts {
				total += n
			}
			if total != 64 {
				t.Fatalf("concurrent materialization saw %d segments, want 64", total)
			}
		})
	}
}

// TestScanChunksAdaptiveSizing: chunkSize <= 0 selects byte-budgeted
// chunks, so many tiny segments coalesce into few chunks instead of
// degenerate one-segment units of work, while concatenation still
// reproduces the plain scan.
func TestScanChunksAdaptiveSizing(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			s := fac.make(t)
			defer s.Close()
			const n = 500
			for i := 0; i < n; i++ {
				start := int64(i * 1000)
				if err := s.Insert(makeSegment(core.Gid(i%2+1), start, start+900)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			chunks := 0
			var got []*core.Segment
			err := s.ScanChunks(context.Background(), AllTime(), 0, func(c Chunk) error {
				chunks++
				segs, err := c.Segments(nil)
				if err != nil {
					return err
				}
				if len(segs) == 0 {
					t.Fatal("adaptive chunk must not be empty")
				}
				got = append(got, segs...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("adaptive chunks covered %d segments, want %d", len(got), n)
			}
			// The test segments are a few dozen bytes each, far below the
			// budget, so they must coalesce well beyond one per chunk.
			if chunks >= n/10 {
				t.Fatalf("%d tiny segments produced %d chunks; budget must merge them", n, chunks)
			}
			want := scanAll(t, s, AllTime())
			for i := range want {
				if want[i].Gid != got[i].Gid || want[i].EndTime != got[i].EndTime {
					t.Fatalf("segment %d differs from plain scan", i)
				}
			}
		})
	}
}

// TestScanRespectsContext: a cancelled context aborts Scan and
// ScanChunks between segments with ctx.Err().
func TestScanRespectsContext(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			s := fac.make(t)
			defer s.Close()
			for i := 0; i < 50; i++ {
				start := int64(i * 1000)
				if err := s.Insert(makeSegment(1, start, start+900)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			seen := 0
			err := s.Scan(ctx, AllTime(), func(*core.Segment) error {
				seen++
				if seen == 3 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Scan after cancel = %v, want context.Canceled", err)
			}
			if seen != 3 {
				t.Fatalf("Scan visited %d segments after cancel, want 3", seen)
			}
			ctx2, cancel2 := context.WithCancel(context.Background())
			chunks := 0
			err = s.ScanChunks(ctx2, AllTime(), 5, func(Chunk) error {
				chunks++
				if chunks == 2 {
					cancel2()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("ScanChunks after cancel = %v, want context.Canceled", err)
			}
			if chunks != 2 {
				t.Fatalf("ScanChunks emitted %d chunks after cancel, want 2", chunks)
			}
		})
	}
}

// TestGroupTimeRangeIndexSkips: a window before or after a group's
// coverage must return nothing (exercises the minStart/last-EndTime
// group skip).
func TestGroupTimeRangeIndexSkips(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			s := fac.make(t)
			defer s.Close()
			// Group 1 covers [5000, 9900], group 2 covers [100000, 100900].
			for i := 5; i < 10; i++ {
				if err := s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Insert(makeSegment(2, 100000, 100900)); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				from, to int64
				want     int
			}{
				{0, 4999, 0},        // before both groups
				{10000, 99999, 0},   // between the groups
				{101000, 200000, 0}, // after both groups
				{9000, 100000, 2},   // clips one segment of each group
				{0, 200000, 6},      // everything
			} {
				got := scanAll(t, s, TimeRange(tc.from, tc.to))
				if len(got) != tc.want {
					t.Errorf("[%d,%d]: %d segments, want %d", tc.from, tc.to, len(got), tc.want)
				}
				if chunked := chunkAll(t, s, TimeRange(tc.from, tc.to), 3); len(chunked) != tc.want {
					t.Errorf("[%d,%d] chunked: %d segments, want %d", tc.from, tc.to, len(chunked), tc.want)
				}
			}
		})
	}
}
