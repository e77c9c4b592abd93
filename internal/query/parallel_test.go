package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/storage"
)

// intDB builds a lossless database whose values are small integers, so
// every aggregate is exact in float64 regardless of summation order
// and parallel results must equal sequential results byte for byte.
// Both logs are exercised: even seeds keep the store's log in memory,
// odd seeds in a file.
func intDB(t *testing.T, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema, err := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewMetadataCache()
	nGroups := rng.Intn(4) + 1
	var groups [][]core.Tid
	tid := core.Tid(1)
	for g := 0; g < nGroups; g++ {
		n := rng.Intn(3) + 1
		var tids []core.Tid
		for i := 0; i < n; i++ {
			err := meta.Add(&core.TimeSeries{
				Tid: tid, SI: 1000,
				Members: map[string][]string{"Location": {fmt.Sprintf("P%d", g%2)}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := meta.SetGroup(tid, core.Gid(g+1)); err != nil {
				t.Fatal(err)
			}
			tids = append(tids, tid)
			tid++
		}
		groups = append(groups, tids)
	}
	members := func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) }
	var store storage.SegmentStore
	if seed%2 == 0 {
		store = storage.NewMemStore(members)
	} else {
		fs, err := storage.OpenFileStore(t.TempDir(), members, 16)
		if err != nil {
			t.Fatal(err)
		}
		store = fs
	}
	for g, tids := range groups {
		cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  models.NewBuiltinRegistry(),
			Bound:     models.RelBound(0),
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}
		gi := core.NewGroupIngestor(cfg, core.Gid(g+1), 1000, tids)
		ticks := rng.Intn(600) + 50
		for tick := 0; tick < ticks; tick++ {
			for _, tt := range tids {
				if rng.Float64() < 0.1 {
					continue // gap
				}
				v := float32(rng.Intn(1024))
				if err := gi.Append(tt, int64(tick)*1000, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(store, meta, models.NewBuiltinRegistry(), schema)
}

// rng2Chunk picks a small chunk size from the seed so scans produce
// many chunks and the merge order actually matters.
func rng2Chunk(seed int64) int {
	if seed < 0 {
		seed = -seed
	}
	return int(seed%7) + 1
}

// randomSQL generates a randomized query mixing both views, push-down
// predicates (Tid, member, TS and IN lists), residual predicates,
// GROUP BY, roll-ups, ORDER BY and LIMIT.
func randomSQL(rng *rand.Rand, nSeries int) string {
	where := ""
	switch rng.Intn(6) {
	case 0:
		where = fmt.Sprintf(" WHERE Tid = %d", rng.Intn(nSeries)+1)
	case 1:
		where = fmt.Sprintf(" WHERE Park = 'P%d'", rng.Intn(3))
	case 2:
		where = fmt.Sprintf(" WHERE Park IN ('P0', 'P%d')", rng.Intn(3))
	case 3:
		lo := int64(rng.Intn(300)) * 1000
		where = fmt.Sprintf(" WHERE TS BETWEEN %d AND %d", lo, lo+int64(rng.Intn(300))*1000)
	case 4:
		where = fmt.Sprintf(" WHERE Tid IN (%d, %d)", rng.Intn(nSeries)+1, rng.Intn(nSeries)+1)
	}
	switch rng.Intn(6) {
	case 0:
		return "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) FROM Segment" +
			where + " GROUP BY Tid ORDER BY Tid"
	case 1:
		return "SELECT Park, SUM_S(*), COUNT_S(*) FROM Segment" + where + " GROUP BY Park ORDER BY Park"
	case 2:
		return "SELECT Tid, COUNT(*), SUM(Value), MIN(Value), MAX(Value) FROM DataPoint" +
			where + " GROUP BY Tid ORDER BY Tid"
	case 3:
		return "SELECT Park, CUBE_SUM_MINUTE(*) FROM Segment" + where + " GROUP BY Park ORDER BY Park"
	case 4:
		return "SELECT Tid, TS, Value FROM DataPoint" + where + " ORDER BY Tid, TS"
	default:
		return "SELECT Tid, StartTime, EndTime FROM Segment" + where + " ORDER BY Tid, StartTime"
	}
}

// checkParallelEqualsSequential is the executor's equivalence property:
// for randomized databases built by mk and randomized queries, N-worker
// execution must return exactly the rows of 1-worker execution.
func checkParallelEqualsSequential(t *testing.T, mk func(seed int64) (*Engine, error)) {
	t.Helper()
	f := func(seed int64, workers uint8) bool {
		eng, err := mk(seed)
		if err != nil {
			t.Logf("database for seed %d: %v", seed, err)
			return false
		}
		eng.chunk = rng2Chunk(seed) // force multi-chunk scans
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := int(workers)%7 + 2 // 2..8 workers
		for i := 0; i < 8; i++ {
			sql := randomSQL(rng, eng.meta.NumSeries())
			eng.SetParallelism(1)
			seq, err := eng.Execute(context.Background(), sql)
			if err != nil {
				t.Logf("sequential %q: %v", sql, err)
				return false
			}
			eng.SetParallelism(n)
			par, err := eng.Execute(context.Background(), sql)
			if err != nil {
				t.Logf("parallel %q: %v", sql, err)
				return false
			}
			if !reflect.DeepEqual(seq.Columns, par.Columns) || !reflect.DeepEqual(seq.Rows, par.Rows) {
				t.Logf("parallel(%d) != sequential for %q:\nseq: %v\npar: %v", n, sql, seq.Rows, par.Rows)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParallelEqualsSequential checks the equivalence property
// on intDB, whose small integers make every aggregate exact in any
// summation order.
func TestPropertyParallelEqualsSequential(t *testing.T) {
	checkParallelEqualsSequential(t, func(seed int64) (*Engine, error) { return intDB(t, seed), nil })
}

// TestPropertyParallelWithinBoundOnNoisyData checks the same property
// on randomDB's noisy lossy data. The bound is zero: SUM and AVG match
// bit for bit only because every worker count merges the same chunk
// partials in the same order.
func TestPropertyParallelWithinBoundOnNoisyData(t *testing.T) {
	checkParallelEqualsSequential(t, func(seed int64) (*Engine, error) {
		eng, _, _, err := randomDB(seed)
		return eng, err
	})
}

// TestParallelDeterministic: chunk results merge in scan order, so two
// parallel runs of the same query are identical even though goroutine
// scheduling differs.
func TestParallelDeterministic(t *testing.T) {
	eng, _, _, err := randomDB(7)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetParallelism(8)
	sql := "SELECT Park, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Park ORDER BY Park"
	first, err := eng.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := eng.Execute(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, res.Rows) {
			t.Fatalf("run %d differs:\nfirst: %v\n  got: %v", i, first.Rows, res.Rows)
		}
	}
}

// errStore wraps a store to fail materialization after a few chunks,
// exercising the executor's abort path.
type errStore struct {
	storage.SegmentStore
	failAfter int
}

type errChunk struct{}

func (errChunk) Segments(*storage.ReadScratch) ([]*core.Segment, error) {
	return nil, fmt.Errorf("synthetic chunk failure")
}

func (s *errStore) ScanChunks(ctx context.Context, f storage.Filter, chunkSize int, emit func(storage.Chunk) error) error {
	n := 0
	return s.SegmentStore.ScanChunks(ctx, f, chunkSize, func(c storage.Chunk) error {
		if n >= s.failAfter {
			return emit(errChunk{})
		}
		n++
		return emit(c)
	})
}

// TestParallelScanErrorPropagates: a failing chunk aborts the query
// and surfaces its error, both from a pool of one (the caller's own
// goroutine) and without deadlocking a pool of four.
func TestParallelScanErrorPropagates(t *testing.T) {
	eng := intDB(t, 2)
	eng.store = &errStore{SegmentStore: eng.store, failAfter: 1}
	eng.chunk = 2 // force several chunks so one past failAfter exists
	for _, par := range []int{1, 4} {
		eng.SetParallelism(par)
		_, err := eng.Execute(context.Background(), "SELECT SUM_S(*) FROM Segment")
		if err == nil || !strings.Contains(err.Error(), "synthetic chunk failure") {
			t.Fatalf("parallelism %d: err = %v, want the synthetic chunk failure", par, err)
		}
	}
}
