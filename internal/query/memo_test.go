package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/storage"
)

// memoCopies returns foldDB's segments for seed and a constructor of
// engines over fresh in-memory copies of them: every copy's memo slots
// start empty, so a copy's first query folds cold.
func memoCopies(t *testing.T, seed int64) (fresh func() *Engine, segs []*core.Segment, nSeries, maxTick int) {
	t.Helper()
	fold, _, nSeries, maxTick := foldDB(t, seed)
	err := fold.store.Scan(context.Background(), storage.AllTime(), func(s *core.Segment) error {
		segs = append(segs, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh = func() *Engine {
		store := storage.NewMemStore(fold.meta.TidsOf)
		insertAll(t, store, segs)
		return NewEngine(store, fold.meta, fold.reg, fold.schema)
	}
	return fresh, segs, nSeries, maxTick
}

// insertAll inserts segs into store and flushes them.
func insertAll(t *testing.T, store storage.SegmentStore, segs []*core.Segment) {
	t.Helper()
	for _, s := range segs {
		if err := store.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
}

// resultBits renders a result's rows with every float64 as its bits, so
// two renderings are equal only when the answers are byte-identical.
func resultBits(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, cell := range row {
			if f, ok := cell.(float64); ok {
				fmt.Fprintf(&b, "f%x ", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%T:%v ", cell, cell)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runCounted executes sql and returns the answer with its view_values.
func runCounted(t *testing.T, e *Engine, col *traceCollector, sql string) (string, int64) {
	t.Helper()
	res, err := e.Execute(context.Background(), sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return resultBits(res), col.take(t).Count(obs.ViewValues)
}

// memoSQL is a randomSQL aggregate over foldDB's data, its roll-up at a
// random level. whole reports that every fold of the query is of whole
// segments: no TS clip, and a level whose buckets no segment crosses
// (foldDB's data spans less than an hour from time 0).
func memoSQL(rng *rand.Rand, nSeries int) (sql string, whole bool) {
	for {
		sql = randomSQL(rng, nSeries)
		if strings.Contains(sql, "SUM") {
			break
		}
	}
	level := []string{"MINUTE", "HOUR", "DAY", "HOUROFDAY"}[rng.Intn(4)]
	sql = strings.Replace(sql, "CUBE_SUM_MINUTE", "CUBE_SUM_"+level, 1)
	whole = !strings.Contains(sql, "TS BETWEEN") && !strings.Contains(sql, "CUBE_SUM_MINUTE")
	return sql, whole
}

// TestPropertyMemoMatchesCold: every aggregate randomSQL composes over
// foldDB's data — both views, roll-ups at several levels, TS-clipped
// ranges, gaps, scaling constants other than 1, Gorilla, PMC, Swing and
// Multi segments — answered cold (no memo filled) and then warm, at
// parallelism 1 and 4, gives one byte-identical answer. A warm query
// whose folds are all of whole segments decodes no view value.
func TestPropertyMemoMatchesCold(t *testing.T) {
	var cold, coldWhole int64
	for seed := int64(1); seed <= 30; seed++ {
		fresh, _, nSeries, _ := memoCopies(t, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x3e30))
		for range 6 {
			sql, whole := memoSQL(rng, nSeries)
			var want string
			for _, par := range []int{1, 4} {
				e := fresh()
				e.SetParallelism(par)
				e.chunk = rng2Chunk(seed)
				col := &traceCollector{}
				col.install(e, obs.NewRegistry())
				first, firstValues := runCounted(t, e, col, sql)
				again, againValues := runCounted(t, e, col, sql)
				if want == "" {
					want = first
				}
				if first != want || again != want {
					t.Fatalf("seed %d, %q at parallelism %d:\nwant %s\ncold %s\nwarm %s", seed, sql, par, want, first, again)
				}
				if againValues > firstValues || (whole && againValues != 0) {
					t.Fatalf("seed %d, %q at parallelism %d: view_values cold %d, warm %d", seed, sql, par, firstValues, againValues)
				}
				cold += firstValues
				if whole {
					coldWhole += firstValues
				}
			}
		}
	}
	if cold == 0 || coldWhole == 0 {
		t.Fatalf("view_values cold %d, of which whole-segment queries %d: no memo was exercised", cold, coldWhole)
	}
}

// TestMemoConcurrentFolds: eight goroutines fold one fresh store at
// once, racing to fill the same memo slots (run it under -race), and
// every answer is the cold answer of a copy folded alone.
func TestMemoConcurrentFolds(t *testing.T) {
	fresh, _, _, _ := memoCopies(t, 3)
	queries := []string{
		"SELECT Tid, COUNT(*), SUM(Value), MIN(Value), MAX(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid",
		"SELECT Park, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Park ORDER BY Park",
	}
	chunked := func() *Engine { // one chunking, so one order of partials
		e := fresh()
		e.SetParallelism(2)
		e.chunk = 3
		return e
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		res, err := chunked().Execute(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultBits(res)
	}
	e := chunked()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range queries {
				i := (g + k) % len(queries)
				res, err := e.Execute(context.Background(), queries[i])
				if err != nil {
					errs <- err
					return
				}
				if got := resultBits(res); got != want[i] {
					errs <- fmt.Errorf("goroutine %d, %q:\ngot  %s\nwant %s", g, queries[i], got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMemoDroppedWithTheIndex: TruncateLog and a close and reopen
// rebuild the file store's index, so the next query decodes again
// (view_values > 0) and answers what a fresh store of the same blocks
// answers.
func TestMemoDroppedWithTheIndex(t *testing.T) {
	fresh, segs, _, _ := memoCopies(t, 5)
	const sql = "SELECT Tid, COUNT(*), SUM(Value), MIN(Value), MAX(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid"
	proto := fresh()
	dir := t.TempDir()
	store, err := storage.OpenFileStore(dir, proto.meta.TidsOf, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := len(segs) / 2
	insertAll(t, store, segs[:half])
	offset := store.LogOffset()
	insertAll(t, store, segs[half:])

	// check runs sql cold, then warm, and compares both with want.
	check := func(store *storage.FileStore, want, when string) {
		t.Helper()
		e := NewEngine(store, proto.meta, proto.reg, proto.schema)
		col := &traceCollector{}
		col.install(e, obs.NewRegistry())
		cold, coldValues := runCounted(t, e, col, sql)
		warm, warmValues := runCounted(t, e, col, sql)
		if cold != want || warm != want {
			t.Fatalf("%s: answers differ from a fresh store's:\nwant %s\ncold %s\nwarm %s", when, want, cold, warm)
		}
		if coldValues == 0 || warmValues != 0 {
			t.Fatalf("%s: view_values cold %d (want > 0), warm %d (want 0)", when, coldValues, warmValues)
		}
	}
	whole := func(segs []*core.Segment) string {
		t.Helper()
		s := storage.NewMemStore(proto.meta.TidsOf)
		insertAll(t, s, segs)
		res, err := NewEngine(s, proto.meta, proto.reg, proto.schema).Execute(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		return resultBits(res)
	}
	all, firstHalf := whole(segs), whole(segs[:half])
	check(store, all, "before truncation")
	if err := store.TruncateLog(offset); err != nil {
		t.Fatal(err)
	}
	check(store, firstHalf, "after TruncateLog")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = storage.OpenFileStore(dir, proto.meta.TidsOf, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	check(store, firstHalf, "after a reopen")
}
