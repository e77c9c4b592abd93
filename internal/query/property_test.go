package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/storage"
)

// randomDB builds a database with random series, gaps and bounds, and
// returns the engine plus the ground-truth points per series.
func randomDB(seed int64) (*Engine, map[core.Tid]map[int64]float64, models.ErrorBound, error) {
	rng := rand.New(rand.NewSource(seed))
	bound := models.RelBound(float64(rng.Intn(6))) // 0..5%
	nGroups := rng.Intn(3) + 1
	schema, err := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park"}})
	if err != nil {
		return nil, nil, bound, err
	}
	meta := core.NewMetadataCache()
	var groups [][]core.Tid
	tid := core.Tid(1)
	for g := 0; g < nGroups; g++ {
		n := rng.Intn(3) + 1
		var tids []core.Tid
		for i := 0; i < n; i++ {
			err := meta.Add(&core.TimeSeries{
				Tid: tid, SI: 1000,
				Members: map[string][]string{"Location": {fmt.Sprintf("P%d", g)}},
			})
			if err != nil {
				return nil, nil, bound, err
			}
			if err := meta.SetGroup(tid, core.Gid(g+1)); err != nil {
				return nil, nil, bound, err
			}
			tids = append(tids, tid)
			tid++
		}
		groups = append(groups, tids)
	}
	store := storage.NewMemStore(func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) })
	truth := map[core.Tid]map[int64]float64{}
	for g, tids := range groups {
		cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  models.NewBuiltinRegistry(),
			Bound:     bound,
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}
		gi := core.NewGroupIngestor(cfg, core.Gid(g+1), 1000, tids)
		base := rng.Float64() * 100
		ticks := rng.Intn(400) + 10
		for tick := 0; tick < ticks; tick++ {
			base += rng.NormFloat64()
			for _, t := range tids {
				if rng.Float64() < 0.1 {
					continue // gap
				}
				v := float32(base + rng.NormFloat64()*0.3)
				ts := int64(tick) * 1000
				if err := gi.Append(t, ts, v); err != nil {
					return nil, nil, bound, err
				}
				if truth[t] == nil {
					truth[t] = map[int64]float64{}
				}
				truth[t][ts] = float64(v)
			}
		}
		if err := gi.Flush(); err != nil {
			return nil, nil, bound, err
		}
	}
	eng := NewEngine(store, meta, models.NewBuiltinRegistry(), schema)
	return eng, truth, bound, nil
}

// TestPropertySegmentViewEqualsDataPointView: the two views agree bit
// for bit on every aggregate, because without a point predicate both
// fold the same models through the same code. That makes this a check
// of the shared fold's plumbing, not of its arithmetic — the oracle
// for the arithmetic is TestPropertyFoldEqualsReconstruct.
func TestPropertySegmentViewEqualsDataPointView(t *testing.T) {
	f := func(seed int64) bool {
		eng, _, _, err := randomDB(seed)
		if err != nil {
			return false
		}
		seg, err := eng.Execute(context.Background(), "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
		if err != nil {
			return false
		}
		dp, err := eng.Execute(context.Background(), "SELECT Tid, COUNT(*), SUM(Value), MIN(Value), MAX(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid")
		if err != nil {
			return false
		}
		return reflect.DeepEqual(seg.Rows, dp.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAggregatesWithinBound: Segment View aggregates must
// track the ground truth within the error bound (SUM within bound of
// the true sum, COUNT exact, MIN/MAX within bound of true extrema).
func TestPropertyAggregatesWithinBound(t *testing.T) {
	f := func(seed int64) bool {
		eng, truth, bound, err := randomDB(seed)
		if err != nil {
			return false
		}
		res, err := eng.Execute(context.Background(), "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
		if err != nil {
			return false
		}
		for _, row := range res.Rows {
			tid := core.Tid(row[0].(int64))
			count := int64(row[1].(float64))
			sum := row[2].(float64)
			if count != int64(len(truth[tid])) {
				return false
			}
			var trueSum, sumAbs float64
			for _, v := range truth[tid] {
				trueSum += v
				sumAbs += math.Abs(v)
			}
			// Each point deviates at most bound% of |v|; the sum at most
			// bound% of sum(|v|). Allow float slack.
			maxDev := bound.Value/100*sumAbs + 1e-3
			if math.Abs(sum-trueSum) > maxDev {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRollupBucketsSumToTotal: the CUBE_SUM buckets of any
// level must add up to the plain SUM_S total (Algorithm 6 partitions,
// it must not double count or drop intervals).
func TestPropertyRollupBucketsSumToTotal(t *testing.T) {
	levels := []string{"MINUTE", "HOUR", "DAY", "HOUROFDAY", "DAYOFWEEK"}
	f := func(seed int64, levelIdx uint8) bool {
		eng, _, _, err := randomDB(seed)
		if err != nil {
			return false
		}
		level := levels[int(levelIdx)%len(levels)]
		total, err := eng.Execute(context.Background(), "SELECT SUM_S(*) FROM Segment")
		if err != nil {
			return false
		}
		if len(total.Rows) == 0 {
			return true
		}
		want := total.Rows[0][0].(float64)
		buckets, err := eng.Execute(context.Background(), fmt.Sprintf("SELECT CUBE_SUM_%s(*) FROM Segment", level))
		if err != nil {
			return false
		}
		got := 0.0
		for _, row := range buckets.Rows {
			if v, ok := row[1].(float64); ok {
				got += v
			}
		}
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPointQueriesMatchTruth: every reconstructed point from
// the Data Point View is within the bound of the ingested value, and
// gap ticks are absent.
func TestPropertyPointQueriesMatchTruth(t *testing.T) {
	f := func(seed int64) bool {
		eng, truth, bound, err := randomDB(seed)
		if err != nil {
			return false
		}
		res, err := eng.Execute(context.Background(), "SELECT Tid, TS, Value FROM DataPoint")
		if err != nil {
			return false
		}
		seen := map[core.Tid]int{}
		for _, row := range res.Rows {
			tid := core.Tid(row[0].(int64))
			ts := row[1].(int64)
			v := row[2].(float64)
			want, ok := truth[tid][ts]
			if !ok {
				return false // produced a point inside a gap
			}
			if !bound.Within(v, want) {
				return false
			}
			seen[tid]++
		}
		for tid, points := range truth {
			if seen[tid] != len(points) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
