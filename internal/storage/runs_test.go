package storage

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/models"
)

// runMembers is a five-group layout whose groups have 1, 3, 5, 9 and
// 17 members, so gap masks of one, two and three bytes all occur.
func runMembers(gid core.Gid) []core.Tid {
	n := []int{0, 1, 3, 5, 9, 17}[gid]
	tids := make([]core.Tid, n)
	for i := range tids {
		tids[i] = core.Tid(int(gid)*100 + i)
	}
	return tids
}

const runGroups = 5

// randomSegment draws a segment of one of the five groups. End times
// come from a small grid so equal (Gid, EndTime) keys — whose relative
// order only a stable sort keeps — are common; id makes the parameters
// of every segment distinct so a swap of two such segments shows.
func randomSegment(rng *rand.Rand, id int) *core.Segment {
	gid := core.Gid(rng.Intn(runGroups) + 1)
	end := int64(rng.Intn(40)) * 1000
	seg := &core.Segment{
		Gid:       gid,
		StartTime: end - int64(rng.Intn(5))*100,
		EndTime:   end,
		SI:        100,
		MID:       models.MidSwing,
		Params:    binary.LittleEndian.AppendUint64(make([]byte, 0, 8+rng.Intn(24)), uint64(id)),
	}
	seg.Params = seg.Params[:cap(seg.Params)]
	members := runMembers(gid)
	if rng.Intn(3) == 0 {
		for _, tid := range members[1:] { // never all: a segment represents someone
			if rng.Intn(2) == 0 {
				seg.GapTids = append(seg.GapTids, tid)
			}
		}
	}
	return seg
}

// segKey renders everything a store must give back about a segment.
func segKey(s *core.Segment) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%x/%v", s.Gid, s.StartTime, s.EndTime, s.SI, s.MID, s.Params, s.GapTids)
}

func keysOf(segs []*core.Segment) []string {
	keys := make([]string, len(segs))
	for i, s := range segs {
		keys[i] = segKey(s)
	}
	return keys
}

// model is the oracle every scan is held to: the inserted segments,
// stable-sorted by (Gid, EndTime), of the filter's groups (in
// ascending order) whose interval overlaps the filter's.
func model(inserted []*core.Segment, f Filter) []*core.Segment {
	segs := slices.Clone(inserted)
	slices.SortStableFunc(segs, func(a, b *core.Segment) int {
		return cmp.Or(cmp.Compare(a.Gid, b.Gid), cmp.Compare(a.EndTime, b.EndTime))
	})
	return slices.DeleteFunc(segs, func(s *core.Segment) bool {
		return (f.Gids != nil && !slices.Contains(f.Gids, s.Gid)) || !s.Covers(f.From, f.To)
	})
}

// TestPropertyFileStoreEqualsMemStore drives the store over a file and
// over a memory log through the same random interleaving of inserts,
// flushes, filtered scans, chunked scans, log truncations and reopens,
// at bulk sizes from 1 to 64 so that log runs of every length — one
// included — occur, and requires every scan of either to return the
// model's segments in the model's (Gid, EndTime) order, field for
// field.
func TestPropertyFileStoreEqualsMemStore(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir, mlog := t.TempDir(), &memLog{}
			var stores [2]*FileStore
			open := func() {
				bulk := rng.Intn(64) + 1
				file, err := OpenFileStore(dir, runMembers, bulk)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := openLog(mlog, int64(len(mlog.data)), runMembers, bulk)
				if err != nil {
					t.Fatal(err)
				}
				stores = [2]*FileStore{file, mem}
			}
			open()
			defer func() {
				for _, s := range stores {
					s.Close()
				}
			}()
			// inserted is every live segment in insertion order; a mark is
			// a log offset a Flush returned at and how many of them the log
			// held then.
			type mark struct {
				offset int64
				n      int
			}
			var inserted []*core.Segment
			marks := []mark{{}}
			flush := func() {
				for _, s := range stores {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if a, b := stores[0].LogOffset(), stores[1].LogOffset(); a != b {
					t.Fatalf("log offsets differ: file %d, memory %d", a, b)
				}
				marks = append(marks, mark{stores[0].LogOffset(), len(inserted)})
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(20); {
				case op < 12:
					seg := randomSegment(rng, len(inserted)+step<<16)
					inserted = append(inserted, seg)
					for _, s := range stores {
						if err := s.Insert(seg); err != nil {
							t.Fatal(err)
						}
					}
				case op < 14:
					flush()
				case op < 15:
					flush()
					for _, s := range stores {
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
					}
					open()
				case op < 16:
					flush() // TruncateLog refuses a non-empty buffer
					m := marks[rng.Intn(len(marks))]
					for _, s := range stores {
						if err := s.TruncateLog(m.offset); err != nil {
							t.Fatal(err)
						}
					}
					inserted = inserted[:m.n]
					marks = slices.DeleteFunc(marks, func(o mark) bool { return o.offset > m.offset })
				default:
					f := AllTime()
					if rng.Intn(2) == 0 {
						from := int64(rng.Intn(40)) * 1000
						f = TimeRange(from-int64(rng.Intn(3))*50, from+int64(rng.Intn(20))*1000)
					}
					if rng.Intn(2) == 0 {
						for gid := core.Gid(1); gid <= runGroups; gid++ {
							if rng.Intn(2) == 0 {
								f.Gids = append(f.Gids, gid)
							}
						}
					}
					want := keysOf(model(inserted, f))
					chunk := 0 // a plain Scan
					if rng.Intn(2) == 0 {
						chunk = rng.Intn(8) + 1
					}
					for i, s := range stores {
						var got []string
						if chunk > 0 {
							got = keysOf(chunkAll(t, s, f, chunk))
						} else {
							got = keysOf(scanAll(t, s, f))
						}
						if !slices.Equal(got, want) {
							t.Fatalf("step %d store %d filter %+v:\n   got %v\n model %v", step, i, f, got, want)
						}
					}
				}
			}
			for i, s := range stores {
				if n, _ := s.Count(); n != int64(len(inserted)) {
					t.Fatalf("store %d: Count = %d, want %d", i, n, len(inserted))
				}
				if got, want := keysOf(scanAll(t, s, AllTime())), keysOf(model(inserted, AllTime())); !slices.Equal(got, want) {
					t.Fatalf("store %d: final scan differs:\n   got %v\n model %v", i, got, want)
				}
			}
		})
	}
}

// TestRetainedSegmentsOutliveScan materializes a scan's chunks from
// many goroutines, keeps every returned segment, lets the store and
// the collector run on — more inserts, more scans, a GC — and then
// re-checks each kept segment against the one inserted. Segments alias
// their chunk's read buffer, so this fails if that buffer is ever
// reused. Run under -race.
func TestRetainedSegmentsOutliveScan(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	fs, err := OpenFileStore(t.TempDir(), runMembers, 37)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want := map[string]bool{}
	for i := 0; i < 3000; i++ {
		seg := randomSegment(rng, i)
		want[segKey(seg)] = true
		if err := fs.Insert(seg); err != nil {
			t.Fatal(err)
		}
	}
	var chunks []Chunk
	if err := fs.ScanChunks(ctx, AllTime(), 64, func(c Chunk) error {
		chunks = append(chunks, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kept := make([][]*core.Segment, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs, err := c.Segments(nil)
			if err != nil {
				t.Errorf("chunk %d: %v", i, err)
			}
			kept[i] = segs
		}()
	}
	wg.Wait()
	for i := 0; i < 3000; i++ {
		if err := fs.Insert(randomSegment(rng, 1<<20+i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		scanAll(t, fs, AllTime())
		runtime.GC()
	}
	total := 0
	for _, segs := range kept {
		for _, seg := range segs {
			total++
			if !want[segKey(seg)] {
				t.Fatalf("a retained segment changed after its scan: %s", segKey(seg))
			}
		}
	}
	if total != len(want) {
		t.Fatalf("retained %d segments, inserted %d", total, len(want))
	}
}

// TestFileStoreReadsPerScan counts log reads. One bulk write lands
// sorted, so a scan of it reads each chunk with one ReadAt however the
// groups were interleaved on the way in; a log written one segment at a
// time has no neighbours to coalesce and costs a read per segment,
// through the same routine.
func TestFileStoreReadsPerScan(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name string
		bulk int
	}{{"clustered", n}, {"interleaved", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := OpenFileStore(t.TempDir(), runMembers, tc.bulk)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			for i := 0; i < n; i++ {
				end := int64(i/runGroups) * 1000
				seg := makeSegment(core.Gid(i%runGroups+1), end-900, end)
				if err := fs.Insert(seg); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Flush(); err != nil {
				t.Fatal(err)
			}
			chunks, segments := 0, 0
			before, _ := fs.ReadStats()
			if err := fs.ScanChunks(context.Background(), AllTime(), 0, func(c Chunk) error {
				segs, err := c.Segments(nil)
				chunks++
				segments += len(segs)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			reads, fetched := fs.ReadStats()
			reads -= before
			if segments != n {
				t.Fatalf("scanned %d segments, want %d", segments, n)
			}
			// The refs tile the log, headers included, so a full scan
			// reads every byte of it once.
			if fetched != fs.LogOffset() {
				t.Fatalf("read %d bytes, the log holds %d", fetched, fs.LogOffset())
			}
			limit := int64(segments)
			if tc.bulk == n {
				limit = int64(chunks)
			}
			if reads > limit || reads < int64(chunks) {
				t.Fatalf("%d reads for %d chunks of %d segments, want at most %d", reads, chunks, segments, limit)
			}
		})
	}
}

// TestFileStoreRecoverBoundsFrameLength: a frame header that claims
// more bytes than the file has left is a torn tail, and recovery must
// see that before it allocates the claimed length.
func TestFileStoreRecoverBoundsFrameLength(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Insert(makeSegment(1, 0, 900)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(log, hugeFrame...), 0o644); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fs, err = OpenFileStore(dir, testMembers, 1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 8<<20 {
		t.Fatalf("recovery allocated %d bytes for a corrupt frame length", grew)
	}
	if n, _ := fs.Count(); n != 1 {
		t.Fatalf("Count = %d after recovery, want the 1 intact record", n)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, log) {
		t.Fatalf("recovery left %d bytes, want the %d-byte intact prefix", len(got), len(log))
	}
}

// hugeFrame is a frame header claiming a payload just under the 1 GiB
// sanity limit, followed by a few bytes of it.
var hugeFrame = append(binary.LittleEndian.AppendUint32(nil, 1<<30-1), 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
