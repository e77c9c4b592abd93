package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

var allLevels = []sqlparse.TimeLevel{
	sqlparse.LevelMinute, sqlparse.LevelHour, sqlparse.LevelDay, sqlparse.LevelMonth, sqlparse.LevelYear,
	sqlparse.LevelHourOfDay, sqlparse.LevelDayOfMonth, sqlparse.LevelDayOfWeek, sqlparse.LevelMonthOfYear,
}

// timeBucketOf is bucketOf as the time package answers it, every level
// through Truncate, Date and AddDate in UTC: the oracle for bucketOf's
// floor arithmetic and for the brute-force roll-ups below.
func timeBucketOf(level sqlparse.TimeLevel, ts int64) (key, next int64) {
	t := time.UnixMilli(ts).UTC()
	day := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	month := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
	switch level {
	case sqlparse.LevelMinute:
		start := t.Truncate(time.Minute)
		return start.UnixMilli(), start.Add(time.Minute).UnixMilli()
	case sqlparse.LevelHour:
		start := t.Truncate(time.Hour)
		return start.UnixMilli(), start.Add(time.Hour).UnixMilli()
	case sqlparse.LevelDay:
		return day.UnixMilli(), day.AddDate(0, 0, 1).UnixMilli()
	case sqlparse.LevelMonth:
		return month.UnixMilli(), month.AddDate(0, 1, 0).UnixMilli()
	case sqlparse.LevelYear:
		year := time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
		return year.UnixMilli(), year.AddDate(1, 0, 0).UnixMilli()
	case sqlparse.LevelHourOfDay:
		return int64(t.Hour()), t.Truncate(time.Hour).Add(time.Hour).UnixMilli()
	case sqlparse.LevelDayOfMonth:
		return int64(t.Day()), day.AddDate(0, 0, 1).UnixMilli()
	case sqlparse.LevelDayOfWeek:
		return int64(t.Weekday()), day.AddDate(0, 0, 1).UnixMilli()
	case sqlparse.LevelMonthOfYear:
		return int64(t.Month()), month.AddDate(0, 1, 0).UnixMilli()
	}
	panic(fmt.Sprintf("level %v", level))
}

// perSeriesRuns is Algorithm 6's walk as the fold ran it for every
// (segment, series), on the time-package buckets.
func perSeriesRuns(level sqlparse.TimeLevel, seg *core.Segment, i0, i1 int) []bucketRun {
	var runs []bucketRun
	for idx := i0; idx <= i1; {
		bucket, boundary := timeBucketOf(level, seg.TimestampAt(idx))
		last := i1
		if boundary <= seg.EndTime {
			last = min(last, int((boundary-1-seg.StartTime)/seg.SI))
		}
		runs = append(runs, bucketRun{bucket: bucket, first: idx, last: last})
		idx = last + 1
	}
	return runs
}

func utcMilli(y int, m time.Month, d, h, min, s, ms int) int64 {
	return time.Date(y, m, d, h, min, s, ms*int(time.Millisecond), time.UTC).UnixMilli()
}

// TestBucketOfArithmetic: the floor arithmetic of the fixed-width
// levels and the calendar of the others give the time package's key and
// next boundary for random millisecond stamps within ±200 years of the
// epoch, negative ones included, and at every stamp's next boundary and
// the millisecond before it; fixed stamps add leap days, month and year
// ends. A segment's bucket split, computed once, equals the walk each
// series used to repeat.
func TestBucketOfArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const span = 200 * 366 * msDay
	stamps := []int64{
		0, -1, 1, msDay - 1, -msDay, -msDay - 1, -msDay + 1,
		utcMilli(2024, 2, 29, 12, 0, 0, 0), utcMilli(2024, 2, 29, 23, 59, 59, 999),
		utcMilli(2000, 2, 29, 0, 0, 0, 0), utcMilli(1968, 2, 29, 6, 30, 0, 0),
		utcMilli(1900, 2, 28, 23, 59, 59, 999), utcMilli(2100, 3, 1, 0, 0, 0, 0),
		utcMilli(2023, 12, 31, 23, 59, 59, 999), utcMilli(1969, 12, 31, 23, 59, 59, 999),
		utcMilli(2023, 4, 30, 23, 0, 0, 0), utcMilli(1970, 1, 31, 0, 0, 0, 0), utcMilli(1931, 6, 30, 23, 59, 0, 0),
	}
	for i := 0; i < 20000; i++ {
		stamps = append(stamps, rng.Int63n(2*span)-span)
	}
	for _, level := range allLevels {
		for _, ts := range stamps {
			_, boundary := timeBucketOf(level, ts)
			for _, x := range []int64{ts, boundary, boundary - 1} {
				wantKey, wantNext := timeBucketOf(level, x)
				if key, next := bucketOf(level, x); key != wantKey || next != wantNext {
					t.Fatalf("%v at %d (%s): bucketOf = (%d, %d), want (%d, %d)",
						level, x, time.UnixMilli(x).UTC(), key, next, wantKey, wantNext)
				}
			}
		}
	}
	sis := []int64{1, 999, 1000, 60000, 7 * msMinute, msHour, msDay, 7 * msDay, 29 * msDay}
	for i := 0; i < 300; i++ {
		si := sis[rng.Intn(len(sis))]
		length := rng.Intn(400) + 1
		start := rng.Int63n(2*span) - span
		seg := &core.Segment{StartTime: start, EndTime: start + int64(length-1)*si, SI: si}
		i0 := rng.Intn(length)
		i1 := i0 + rng.Intn(length-i0)
		for _, level := range allLevels {
			got := appendBucketRuns(nil, level, seg, i0, i1)
			if want := perSeriesRuns(level, seg, i0, i1); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v over [%d, %d] of (start %d, si %d): split %v, want %v", level, i0, i1, start, si, got, want)
			}
		}
	}
}

// TestCubeStateAddMerge: adds in any bucket order, and merges of any
// two states, leave a strictly ascending state holding what a map from
// bucket to state holds.
func TestCubeStateAddMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func() (CubeState, map[int64]ScalarState) {
		var c CubeState
		m := map[int64]ScalarState{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			bucket := int64(rng.Intn(30) - 10)
			v := float64(rng.Intn(100))
			c.Add(bucket, 1, v, v, v)
			s, ok := m[bucket]
			if !ok {
				s = NewScalarState()
			}
			s.AddRange(1, v, v, v)
			m[bucket] = s
		}
		return c, m
	}
	check := func(c CubeState, m map[int64]ScalarState) {
		t.Helper()
		if len(c) != len(m) {
			t.Fatalf("%d buckets, want %d", len(c), len(m))
		}
		for i, cell := range c {
			if i > 0 && c[i-1].Bucket >= cell.Bucket {
				t.Fatalf("bucket %d after %d", cell.Bucket, c[i-1].Bucket)
			}
			if cell.ScalarState != m[cell.Bucket] {
				t.Fatalf("bucket %d = %+v, want %+v", cell.Bucket, cell.ScalarState, m[cell.Bucket])
			}
		}
	}
	for i := 0; i < 500; i++ {
		a, ma := random()
		check(a, ma)
		b, mb := random()
		a.Merge(b)
		for bucket, s := range mb {
			sa, ok := ma[bucket]
			if !ok {
				sa = NewScalarState()
			}
			sa.Merge(s)
			ma[bucket] = sa
		}
		check(a, ma)
		check(b, mb) // Merge only reads its argument
	}
}

// TestFinalizeCubeUnion: a group whose roll-up states hold different
// buckets — only a peer's frame can send that — finalizes to one row
// per bucket of their union, ascending, NULL where a state lacks it.
func TestFinalizeCubeUnion(t *testing.T) {
	f := newFixture(t)
	q, err := sqlparse.Parse("SELECT CUBE_SUM_HOUR(*), CUBE_COUNT_HOUR(*) FROM Segment")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(bucket, n int64) CubeCell {
		return CubeCell{Bucket: bucket, ScalarState: ScalarState{Count: n, Sum: float64(n), Min: 0, Max: 0}}
	}
	part := &PartialResult{IsAggregate: true, Groups: map[string]*GroupState{"": {
		Cubes: []CubeState{{cell(0, 1), cell(2, 2)}, {cell(1, 3), cell(2, 4), cell(5, 5)}},
	}}}
	res, err := f.eng.Finalize(q, []*PartialResult{part})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(0), 1.0, nil}, {int64(1), nil, 3.0}, {int64(2), 2.0, 4.0}, {int64(5), nil, 5.0}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows %v, want %v", res.Rows, want)
	}
}

// cubePoint is one row of the unfiltered row scan with the StartTime,
// EndTime and Mid of the segment that holds it.
type cubePoint struct {
	tid, ts, segStart, segEnd, mid int64
	park                           string
	v                              float64
}

// cubePoints joins SELECT Tid, Park, TS, Value FROM DataPoint with the
// per-series segment intervals of the Segment view.
func cubePoints(t *testing.T, eng *Engine) []cubePoint {
	t.Helper()
	ctx := context.Background()
	segs, err := eng.Execute(ctx, "SELECT Tid, StartTime, EndTime, Mid FROM Segment ORDER BY StartTime")
	if err != nil {
		t.Fatal(err)
	}
	intervals := map[int64][][3]int64{} // per Tid, ascending
	for _, row := range segs.Rows {
		tid := row[0].(int64)
		intervals[tid] = append(intervals[tid], [3]int64{row[1].(int64), row[2].(int64), row[3].(int64)})
	}
	rows, err := eng.Execute(ctx, "SELECT Tid, Park, TS, Value FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	points := make([]cubePoint, len(rows.Rows))
	for i, row := range rows.Rows {
		p := cubePoint{tid: row[0].(int64), park: row[1].(string), ts: row[2].(int64), v: row[3].(float64)}
		iv := intervals[p.tid]
		j := sort.Search(len(iv), func(j int) bool { return iv[j][1] >= p.ts })
		if j == len(iv) || iv[j][0] > p.ts {
			t.Fatalf("point (%d, %d) lies in none of its series' segments", p.tid, p.ts)
		}
		p.segStart, p.segEnd, p.mid = iv[j][0], iv[j][1], iv[j][2]
		points[i] = p
	}
	return points
}

// cubeKey identifies one output row of a grouped roll-up.
type cubeKey struct {
	group  any
	bucket int64
}

// cubeOracle is one bucket's brute-force state plus the sum of absolute
// values that bounds the float32 rounding a SUM may differ by.
type cubeOracle struct {
	ScalarState
	abs float64
}

// bruteForceCube buckets the points keep accepts with the time package
// and aggregates them per (group, bucket).
func bruteForceCube(points []cubePoint, group string, level sqlparse.TimeLevel, keep func(cubePoint) bool) map[cubeKey]*cubeOracle {
	out := map[cubeKey]*cubeOracle{}
	for _, p := range points {
		if !keep(p) {
			continue
		}
		var k cubeKey
		switch group {
		case "Tid":
			k.group = p.tid
		case "Park":
			k.group = p.park
		case "StartTime":
			k.group = p.segStart
		}
		k.bucket, _ = timeBucketOf(level, p.ts)
		s := out[k]
		if s == nil {
			s = &cubeOracle{ScalarState: NewScalarState()}
			out[k] = s
		}
		s.AddPoint(p.v)
		s.abs += math.Abs(p.v)
	}
	return out
}

// sameCube checks a roll-up result (group column first when keyed,
// then the bucket, SUM, COUNT, MIN, MAX, AVG) against the oracle: one
// row per oracle bucket, buckets ascending within each group, COUNT,
// MIN and MAX exact, SUM and AVG within float32 rounding of the points.
func sameCube(got *Result, want map[cubeKey]*cubeOracle, keyed bool) error {
	if len(got.Rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want))
	}
	var prev cubeKey
	for i, row := range got.Rows {
		var k cubeKey
		if keyed {
			k.group, row = row[0], row[1:]
		}
		k.bucket = row[0].(int64)
		if i > 0 && prev.group == k.group && prev.bucket >= k.bucket {
			return fmt.Errorf("row %d: bucket %d after %d in group %v", i, k.bucket, prev.bucket, k.group)
		}
		prev = k
		s := want[k]
		if s == nil {
			return fmt.Errorf("row %d: unexpected bucket %v", i, k)
		}
		n := float64(s.Count)
		for c, w := range []struct {
			name     string
			v, slack float64
		}{
			{"SUM", s.Sum, 1e-6 * math.Max(1, s.abs)},
			{"COUNT", n, 0},
			{"MIN", s.Min, 0},
			{"MAX", s.Max, 0},
			{"AVG", s.Sum / n, 1e-6 * math.Max(1, s.abs/n)},
		} {
			if a := row[1+c].(float64); math.Abs(a-w.v) > w.slack || (w.slack == 0 && a != w.v) {
				return fmt.Errorf("row %d %v: %s = %v, want %v", i, k, w.name, a, w.v)
			}
		}
	}
	return nil
}

// reversedCopy is eng over a memory store fed eng's segments newest
// first. The store keeps each group in EndTime order whatever the
// insert order, so only segments with equal EndTime — parts of a split
// group — come back in another order.
func reversedCopy(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	var segs []*core.Segment
	all := allTime()
	err := eng.store.Scan(context.Background(), storage.Filter{From: all.from, To: all.to}, func(s *core.Segment) error {
		segs = append(segs, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := storage.NewMemStore(func(gid core.Gid) []core.Tid { return eng.meta.TidsOf(gid) })
	for i := len(segs) - 1; i >= 0; i-- {
		if err := ms.Insert(segs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(ms, eng.meta, eng.reg, eng.schema)
}

// TestPropertyCubeEqualsBruteForce: every roll-up level answers, bucket
// by bucket, what a Go pass over the unfiltered row scan answers when
// it buckets each point with the time package — the five aggregates in
// one query; grouped by nothing, Tid, Park or (the key that changes per
// segment) StartTime; with no series conjunct, a Tid IN list (resolved
// once per series) or conjuncts on StartTime, EndTime or Mid, alone or
// OR-ed with a Tid (evaluated per segment); at
// parallelism 1 and 4 on the memory and file stores (even and odd
// seeds) and on a memory store fed out of time order. The sampling
// grids cross the epoch, a leap day and a year end. Roll-ups exist only
// on the Segment view.
func TestPropertyCubeEqualsBruteForce(t *testing.T) {
	const aggs = "CUBE_SUM_%[1]v(*), CUBE_COUNT_%[1]v(*), CUBE_MIN_%[1]v(*), CUBE_MAX_%[1]v(*), CUBE_AVG_%[1]v(*)"
	grids := []struct {
		start, si int64
		levels    []sqlparse.TimeLevel
	}{
		{utcMilli(1969, 12, 31, 23, 57, 30, 0), 1000, []sqlparse.TimeLevel{
			sqlparse.LevelMinute, sqlparse.LevelHour, sqlparse.LevelDay, sqlparse.LevelHourOfDay, sqlparse.LevelDayOfWeek}},
		{utcMilli(2024, 2, 28, 20, 3, 17, 0), 7 * msMinute, []sqlparse.TimeLevel{
			sqlparse.LevelHour, sqlparse.LevelDay, sqlparse.LevelMonth, sqlparse.LevelHourOfDay, sqlparse.LevelDayOfMonth}},
		{utcMilli(2023, 10, 17, 6, 0, 0, 0), msDay, []sqlparse.TimeLevel{
			sqlparse.LevelMonth, sqlparse.LevelYear, sqlparse.LevelMonthOfYear, sqlparse.LevelDayOfMonth, sqlparse.LevelDayOfWeek}},
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		grid := grids[seed%int64(len(grids))]
		fold, _, nSeries, maxTick := foldDBAt(t, seed, grid.start, grid.si)
		if _, err := fold.Execute(ctx, "SELECT CUBE_SUM_HOUR(*) FROM DataPoint"); err == nil {
			t.Fatal("a roll-up on the DataPoint view must be rejected")
		}
		points := cubePoints(t, fold)
		engines := []*Engine{fold, reversedCopy(t, fold)}
		rng := rand.New(rand.NewSource(seed))
		k := int64(rng.Intn(nSeries) + 1)
		x := grid.start + int64(rng.Intn(maxTick))*grid.si
		y := x + int64(rng.Intn(maxTick))*grid.si
		m := points[rng.Intn(len(points))].mid
		wheres := []struct {
			sql  string
			keep func(cubePoint) bool
		}{
			{"", func(cubePoint) bool { return true }},
			{fmt.Sprintf(" WHERE Tid IN (%d, 1)", k), func(p cubePoint) bool { return p.tid == k || p.tid == 1 }},
			{fmt.Sprintf(" WHERE StartTime >= %d", x), func(p cubePoint) bool { return p.segStart >= x }},
			{fmt.Sprintf(" WHERE EndTime < %d", x), func(p cubePoint) bool { return p.segEnd < x }},
			{fmt.Sprintf(" WHERE StartTime BETWEEN %d AND %d", x, y), func(p cubePoint) bool { return p.segStart >= x && p.segStart <= y }},
			{fmt.Sprintf(" WHERE Mid = %d", m), func(p cubePoint) bool { return p.mid == m }},
			{fmt.Sprintf(" WHERE Mid != %d", m), func(p cubePoint) bool { return p.mid != m }},
			{fmt.Sprintf(" WHERE EndTime > %d OR Tid = %d", x, k), func(p cubePoint) bool { return p.segEnd > x || p.tid == k }},
		}
		for _, level := range grid.levels {
			for _, w := range wheres {
				for _, group := range []string{"", "Tid", "Park", "StartTime"} {
					sql := "SELECT " + fmt.Sprintf(aggs, level) + " FROM Segment" + w.sql
					if group != "" {
						sql = "SELECT " + group + ", " + fmt.Sprintf(aggs, level) + " FROM Segment" + w.sql + " GROUP BY " + group
					}
					want := bruteForceCube(points, group, level, w.keep)
					for ei, eng := range engines {
						for _, par := range []int{1, 4} {
							eng.SetParallelism(par)
							eng.chunk = rng2Chunk(seed)
							got, err := eng.Execute(ctx, sql)
							if err != nil {
								t.Fatalf("seed %d: %s: %v", seed, sql, err)
							}
							if err := sameCube(got, want, group != ""); err != nil {
								t.Fatalf("seed %d engine %d par %d: %s: %v", seed, ei, par, sql, err)
							}
						}
					}
				}
			}
		}
	}
}
