package modelardb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fanOutSchedule runs one seeded schedule over 16 single-series groups
// at GOMAXPROCS procs, with a file store, a WAL and a small bulk write
// size: gaps, unsequenced, sequenced and replayed batches, a Flush, and
// one batch whose middle group gets an out-of-order point. It returns
// hashDirs after the schedule and after Close, every error AppendBatch
// returned, and the per-series count and sum.
func fanOutSchedule(t *testing.T, procs int) (sums map[string]string, errs []string, answer [][]any) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const nseries, ooo = 16, Tid(8)
	dataDir, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(nseries, dataDir, walDir, "always")
	cfg.LengthLimit = 10
	cfg.BulkWriteSize = 8
	cfg.WALSegmentBytes = 1024
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	tick := 0
	for step := 0; step < 40; step++ {
		var pts []DataPoint
		for n := 1 + rng.Intn(6); n > 0; n-- {
			for tid := Tid(1); tid <= nseries; tid++ {
				if rng.Intn(10) == 0 && (step != 25 || tid != ooo) {
					continue // a gap
				}
				pts = append(pts, DataPoint{Tid: tid, TS: int64(tick) * 100, Value: float32(rng.Intn(50)) + float32(tid)/4})
			}
			tick++
		}
		if step == 25 {
			// A point behind group ooo's last tick: the group fails there
			// and drops the point after it, while the groups after it
			// ingest the whole batch.
			pts = append(pts, DataPoint{Tid: ooo, TS: int64(tick-2) * 100, Value: 1}, DataPoint{Tid: ooo, TS: int64(tick) * 100, Value: 2})
		}
		var seqs map[Gid]uint64
		switch rng.Intn(3) {
		case 1:
			seqs = map[Gid]uint64{}
			for gid := Gid(1); gid <= nseries; gid++ {
				if gid%3 != 0 {
					seqs[gid] = uint64(step + 1)
				}
			}
		case 2: // a replay of an earlier batch's sequence: skipped where applied
			seqs = map[Gid]uint64{}
			for gid := Gid(1); gid <= nseries; gid++ {
				seqs[gid] = uint64(step / 2)
			}
		}
		if err := db.AppendBatchSeq(context.Background(), pts, seqs); err != nil {
			errs = append(errs, fmt.Sprintf("step %d: %v", step, err))
		}
		if step == 20 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sums = map[string]string{}
	hashDirs(t, sums, "tail", dataDir, walDir)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	hashDirs(t, sums, "closed", dataDir, walDir)
	return sums, errs, res.Rows
}

// TestAppendBatchFanOutDeterministic: AppendBatch fits a batch's groups
// on every core, yet the segment log, every WAL file, the errors
// returned and the answers are those of a run on one core.
func TestAppendBatchFanOutDeterministic(t *testing.T) {
	wantSums, wantErrs, wantAnswer := fanOutSchedule(t, 1)
	if len(wantErrs) != 1 || len(wantAnswer) != 16 {
		t.Fatalf("serial run: errors %q and %d answer rows, want one error and 16 rows", wantErrs, len(wantAnswer))
	}
	for run := 0; run < 3; run++ {
		sums, errs, answer := fanOutSchedule(t, 4)
		for k, v := range wantSums {
			if sums[k] != v {
				t.Errorf("run %d: %s: sha256 %s, serial %s", run, k, sums[k], v)
			}
		}
		if len(sums) != len(wantSums) {
			t.Errorf("run %d: %d files, serial %d", run, len(sums), len(wantSums))
		}
		if !reflect.DeepEqual(errs, wantErrs) {
			t.Errorf("run %d: errors %q, serial %q", run, errs, wantErrs)
		}
		if !reflect.DeepEqual(answer, wantAnswer) {
			t.Errorf("run %d: answer %v, serial %v", run, answer, wantAnswer)
		}
	}
}

// TestAppendBatchFlushConcurrentCrash: two writers append batches over
// disjoint groups and over groups they share, one series each, while a
// third goroutine checkpoints in a loop; then the OS crashes. A batch
// holds the segments of the groups it has fitted until all its groups
// are done, so a checkpoint that did not drain them would cover WAL
// records whose points are in no synced segment. Every acknowledged
// point must come back exactly once.
func TestAppendBatchFlushConcurrentCrash(t *testing.T) {
	const rounds = 150
	cfg := Config{
		ErrorBound:   RelBound(0),
		Dimensions:   []Dimension{{Name: "Location", Levels: []string{"Park", "Turbine"}}},
		Correlations: []string{"Location 1"},
		Path:         "data",
		WALDir:       "wal",
		WALFsync:     "always",
		LengthLimit:  10,
	}
	for i := 0; i < 12; i++ {
		cfg.Series = append(cfg.Series, SeriesConfig{
			SI: 100, Members: map[string][]string{"Location": {fmt.Sprintf("P%d", i/2), fmt.Sprintf("T%d", i)}},
		})
	}
	fsys := newFaultFS()
	db, err := openFS(cfg, fsys)
	if err != nil {
		t.Fatal(err)
	}
	// Writer 0 owns groups 0–1, writer 1 groups 4–5; they share groups
	// 2–3, one member each.
	var series [2][]Tid
	for i, gid := range db.Groups() {
		members := db.GroupMembers(gid)
		if len(members) != 2 {
			t.Fatalf("group %d has members %v, want two", gid, members)
		}
		switch {
		case i < 2:
			series[0] = append(series[0], members...)
		case i < 4:
			series[0] = append(series[0], members[0])
			series[1] = append(series[1], members[1])
		default:
			series[1] = append(series[1], members...)
		}
	}
	var done atomic.Bool
	flushed := make(chan error)
	go func() {
		for !done.Load() {
			if err := db.Flush(); err != nil {
				flushed <- err
				return
			}
		}
		flushed <- nil
	}()
	var acked []DataPoint
	round := func(r int) {
		// One tick a round, and the round ends before the next begins, so
		// the shared groups see their ticks in order.
		var batches [2][]DataPoint
		var wg sync.WaitGroup
		for w := range batches {
			for _, tid := range series[w] {
				batches[w] = append(batches[w], DataPoint{Tid: tid, TS: int64(r) * 100, Value: float32(r%37) + float32(tid)})
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := db.AppendBatch(context.Background(), batches[w]); err != nil {
					t.Errorf("round %d writer %d: %v", r, w, err)
				}
			}()
		}
		wg.Wait()
		acked = append(append(acked, batches[0]...), batches[1]...)
	}
	for r := 0; r < rounds-2; r++ {
		round(r)
	}
	done.Store(true)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	// The same without the race: this Flush checkpoints a round whose
	// segments, fitted by the Flush itself, only the drain puts in the
	// store before it syncs; the last round leaves a WAL tail.
	round(rounds - 2)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	round(rounds - 1)
	if t.Failed() {
		return
	}
	reopened, err := openFS(cfg, fsys.crash())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertAckedPoints(t, reopened, acked, nil)
	res, err := reopened.Query(context.Background(), "SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Series) {
		t.Fatalf("recovered %d series, want %d", len(res.Rows), len(cfg.Series))
	}
	for _, row := range res.Rows {
		if n := row[1].(float64); n != rounds {
			t.Errorf("tid %v recovered %v points, want %d", row[0], n, rounds)
		}
	}
}
