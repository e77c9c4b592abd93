package storage

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/models"
)

// chunksOf collects a ScanChunks' chunks without reading them.
func chunksOf(t *testing.T, s *FileStore, f Filter, chunkSize int) []Chunk {
	t.Helper()
	var chunks []Chunk
	if err := s.ScanChunks(context.Background(), f, chunkSize, func(c Chunk) error {
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return chunks
}

// readAll reads every chunk, into rs when it is not nil, and returns
// the segments' keys in scan order.
func readAll(chunks []Chunk, rs *ReadScratch) ([]string, error) {
	var keys []string
	for _, c := range chunks {
		segs, err := c.Segments(rs)
		if err != nil {
			return nil, err
		}
		keys = append(keys, keysOf(segs)...)
	}
	return keys, nil
}

// TestIndexSpansSurviveInserts: a chunk is a view of the store's index,
// not a copy, so it must keep returning the segments that matched when
// ScanChunks ran while other goroutines insert segments that sort after
// every indexed one, segments that sort among them, and flush. Readers
// run beside the writer, fresh and lent, and once more after it is
// done. An index that shifted refs in place to make room for an insert
// would move them under the chunks (and race under -race).
func TestIndexSpansSurviveInserts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		f         Filter
		chunkSize int
	}{
		{"all/adaptive", AllTime(), 0},
		{"all/7", AllTime(), 7},
		{"window/5", TimeRange(12_000, 27_000, 1, 3, 4, 5), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			fs, err := OpenFileStore(t.TempDir(), runMembers, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			var inserted []*core.Segment
			for i := 0; i < 1500; i++ {
				seg := randomSegment(rng, i)
				inserted = append(inserted, seg)
				if err := fs.Insert(seg); err != nil {
					t.Fatal(err)
				}
			}
			chunks := chunksOf(t, fs, tc.f, tc.chunkSize)
			want := keysOf(model(inserted, tc.f))
			check := func(who string, rs *ReadScratch) {
				got, err := readAll(chunks, rs)
				if err != nil {
					t.Errorf("%s: %v", who, err)
				} else if !slices.Equal(got, want) {
					t.Errorf("%s: chunks read %d segments that differ from the %d that matched at ScanChunks", who, len(got), len(want))
				}
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // the writer: in-order and out-of-order groups of inserts, each flushed
				defer wg.Done()
				wrng := rand.New(rand.NewSource(12))
				for i := 0; i < 1500; i++ {
					seg := randomSegment(wrng, 1<<20+i)
					if i%3 == 0 { // after every indexed segment of its group
						seg.StartTime += 100_000
						seg.EndTime += 100_000
					}
					if err := fs.Insert(seg); err != nil {
						t.Error(err)
						return
					}
					if i%25 == 0 {
						if err := fs.Flush(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var rs ReadScratch
					for round := 0; round < 4; round++ {
						check(fmt.Sprintf("reader %d round %d fresh", r, round), nil)
						check(fmt.Sprintf("reader %d round %d lent", r, round), &rs)
					}
				}()
			}
			wg.Wait()
			if err := fs.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after the inserts", nil)
			if n, _ := fs.Count(); n != 3000 {
				t.Fatalf("Count = %d, want 3000", n)
			}
		})
	}
}

// TestLentReadMatchesFresh: a chunk read into a lent scratch returns
// the segments a fresh read returns, field for field. The next lent
// read with the same scratch reuses its memory — the same arena, the
// same buffer, no allocation when the chunk fits — so the earlier lent
// segments hold the later chunk's contents: a lent segment is valid
// only until its scratch's next use, while fresh ones stay as read.
func TestLentReadMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var table [runGroups + 1][]core.Tid
	for gid := range table[1:] {
		table[gid+1] = runMembers(core.Gid(gid + 1))
	}
	// runMembers as a table: a lookup that allocates would be counted
	// against the read.
	members := func(gid core.Gid) []core.Tid { return table[gid] }
	fs, err := OpenFileStore(t.TempDir(), members, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 800; i++ {
		if err := fs.Insert(randomSegment(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	chunks := chunksOf(t, fs, AllTime(), 16)
	if len(chunks) < 3 {
		t.Fatalf("%d chunks, want several", len(chunks))
	}
	var rs ReadScratch
	if _, err := readAll(chunks, &rs); err != nil { // grow rs to the largest chunk
		t.Fatal(err)
	}
	var fresh [][]*core.Segment
	var freshKeys [][]string
	var prev []*core.Segment
	var prevKeys []string
	for i, c := range chunks {
		f, err := c.Segments(nil)
		if err != nil {
			t.Fatal(err)
		}
		base := &rs.buf[0]
		lent, err := c.Segments(&rs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keysOf(lent), keysOf(f); !slices.Equal(got, want) {
			t.Fatalf("chunk %d: lent read %v, fresh read %v", i, got, want)
		}
		if &rs.buf[0] != base || (prev != nil && lent[0] != prev[0]) {
			t.Fatalf("chunk %d: a lent read did not reuse the scratch's buffer and arena", i)
		}
		if prev != nil && slices.Equal(keysOf(prev), prevKeys) {
			t.Fatalf("chunk %d: the previous lent read's segments were not overwritten", i)
		}
		prev, prevKeys = lent, keysOf(lent)
		fresh = append(fresh, f)
		freshKeys = append(freshKeys, keysOf(f))
	}
	for i, f := range fresh {
		if !slices.Equal(keysOf(f), freshKeys[i]) {
			t.Fatalf("chunk %d: a fresh read changed after later lent reads", i)
		}
	}
	c := chunks[len(chunks)/2]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Segments(&rs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a lent read of a chunk that fits allocated %.0f times, want 0", allocs)
	}
}

// TestReadScratchTrim: a scratch keeps what a chunk of the adaptive
// sizing needs, and Trim drops a buffer above maxRunBytes and an arena
// above AdaptiveMaxSegments, each on its own, so a pooled scratch does
// not pin the memory of one query's huge explicit chunk.
func TestReadScratchTrim(t *testing.T) {
	members := func(core.Gid) []core.Tid { return []core.Tid{1} }
	fs, err := OpenFileStore("", members, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	insert := func(gid core.Gid, n, params int) {
		for i := 0; i < n; i++ {
			end := int64(i) * 1000
			seg := &core.Segment{Gid: gid, StartTime: end - 900, EndTime: end, SI: 100,
				MID: models.MidGorilla, Params: make([]byte, params)}
			if err := fs.Insert(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(1, 2*AdaptiveMaxSegments, 8) // many small segments
	insert(2, 8, maxRunBytes/4)         // few large ones
	read := func(f Filter, chunkSize int) *ReadScratch {
		var rs ReadScratch
		for _, c := range chunksOf(t, fs, f, chunkSize) {
			if _, err := c.Segments(&rs); err != nil {
				t.Fatal(err)
			}
		}
		return &rs
	}
	for _, tc := range []struct {
		name               string
		f                  Filter
		chunkSize          int
		keepBuf, keepArena bool
	}{
		{"adaptive", AllTime(), 0, true, true},
		{"many segments", AllTime(1), 2 * AdaptiveMaxSegments, true, false},
		{"many bytes", AllTime(2), 8, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := read(tc.f, tc.chunkSize)
			if rs.buf == nil || rs.arena == nil || rs.segs == nil {
				t.Fatal("a lent read left the scratch empty")
			}
			rs.Trim()
			if (rs.buf != nil) != tc.keepBuf || (rs.arena != nil) != tc.keepArena || (rs.segs != nil) != tc.keepArena {
				t.Fatalf("after Trim: buffer kept %v (want %v), arena kept %v and pointers kept %v (want %v)",
					rs.buf != nil, tc.keepBuf, rs.arena != nil, rs.segs != nil, tc.keepArena)
			}
		})
	}
}
