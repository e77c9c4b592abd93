package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/obs"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

// foldDB builds a randomized database shaped to reach every model the
// fold runs on: stretches of constant values (PMC), ramps (Swing) and
// noise (Gorilla), one group fitted by per-series sub-models (Multi),
// gap stretches, scaling constants other than 1, and the store's log in
// memory for even seeds, in a file for odd ones. It returns two engines
// over the one store: fold takes the plan's decision, points is forced
// to reconstruct — the oracle.
func foldDB(t *testing.T, seed int64) (fold, points *Engine, nSeries, maxTick int) {
	t.Helper()
	return foldDBAt(t, seed, 0, 1000)
}

// foldDBAt is foldDB with every series sampled at start + tick*si.
func foldDBAt(t *testing.T, seed, start, si int64) (fold, points *Engine, nSeries, maxTick int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema, err := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park"}})
	if err != nil {
		t.Fatal(err)
	}
	multi := models.NewRegistry()
	for _, mt := range []models.ModelType{
		models.NewMulti(models.PMCType{}, models.MidMultiBase),
		models.NewMulti(models.SwingType{}, models.MidMultiBase+1),
		models.GorillaType{},
	} {
		if err := multi.Register(mt); err != nil {
			t.Fatal(err)
		}
	}
	all := models.NewBuiltinRegistry()
	for _, mt := range multi.Types()[:2] {
		if err := all.Register(mt); err != nil {
			t.Fatal(err)
		}
	}
	meta := core.NewMetadataCache()
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
	t.Cleanup(func() { store.Close() })

	scalings := []float32{1, 2, 0.5, 10}
	nGroups := rng.Intn(3) + 2
	tid := core.Tid(1)
	for g := 0; g < nGroups; g++ {
		var tids []core.Tid
		for i, n := 0, rng.Intn(3)+1; i < n; i++ {
			err := meta.Add(&core.TimeSeries{
				Tid: tid, SI: si, Scaling: scalings[rng.Intn(len(scalings))],
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
		reg := models.NewBuiltinRegistry()
		if g == 0 {
			reg = multi
		}
		gi := core.NewGroupIngestor(core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  reg,
			Bound:     models.RelBound(float64(rng.Intn(4))),
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}, core.Gid(g+1), si, tids)
		ticks := rng.Intn(300) + 40
		if ticks > maxTick {
			maxTick = ticks
		}
		base := rng.Float64()*100 + 10
		for tick := 0; tick < ticks; {
			shape, slope := rng.Intn(3), rng.NormFloat64()
			silent := core.Tid(0) // one series falls silent for the stretch
			if rng.Intn(4) == 0 {
				silent = tids[rng.Intn(len(tids))]
			}
			for end := tick + rng.Intn(60) + 1; tick < end && tick < ticks; tick++ {
				switch shape {
				case 1:
					base += slope
				case 2:
					base += rng.NormFloat64()
				}
				for i, tt := range tids {
					if tt == silent {
						continue
					}
					ts, _ := meta.Series(tt)
					v := float32(base+float64(i)*0.01) * ts.Scaling
					if err := gi.Append(tt, start+int64(tick)*si, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fold = NewEngine(store, meta, all, schema)
	points = NewEngine(store, meta, all, schema)
	points.forcePerPoint = true
	return fold, points, int(tid) - 1, maxTick
}

// foldWhere is one WHERE clause with the predicate it means, written
// out in Go so a brute-force filter over an unfiltered row scan checks
// the WHERE split, the strict-TS clamp and the compiled evaluator
// independently of them.
type foldWhere struct {
	sql  string
	keep func(tid int64, park string, ts int64, v float64) bool
}

// The Value literals are values of scan's points, so equality and IN
// have points to match.
func foldWheres(rng *rand.Rand, nSeries, maxTick int, scan *Result) []foldWhere {
	lo := int64(rng.Intn(maxTick)) * 1000
	hi := lo + int64(rng.Intn(maxTick))*1000
	one := int64(rng.Intn(maxTick)) * 1000
	k := int64(rng.Intn(nSeries) + 1)
	end := int64(maxTick) * 1000
	value := func() float64 { return scan.Rows[rng.Intn(len(scan.Rows))][3].(float64) }
	x, a, b := value(), value(), value()
	return []foldWhere{
		{"", func(int64, string, int64, float64) bool { return true }},
		{fmt.Sprintf(" WHERE TS BETWEEN 0 AND %d", end), // the full range
			func(_ int64, _ string, ts int64, _ float64) bool { return ts <= end }},
		{fmt.Sprintf(" WHERE TS BETWEEN %d AND %d", lo, hi), // clipped
			func(_ int64, _ string, ts int64, _ float64) bool { return ts >= lo && ts <= hi }},
		{fmt.Sprintf(" WHERE TS > %d AND TS < %d", lo+300, hi+300), // clipped, off the grid
			func(_ int64, _ string, ts int64, _ float64) bool { return ts > lo+300 && ts < hi+300 }},
		{fmt.Sprintf(" WHERE TS >= %d AND TS <= %d AND Tid > 1", lo, hi),
			func(tid int64, _ string, ts int64, _ float64) bool { return ts >= lo && ts <= hi && tid > 1 }},
		{fmt.Sprintf(" WHERE TS = %d", one), // a single tick
			func(_ int64, _ string, ts int64, _ float64) bool { return ts == one }},
		{fmt.Sprintf(" WHERE TS > %d AND TS < %d", one, one+1000), // empty: between two ticks
			func(int64, string, int64, float64) bool { return false }},
		{fmt.Sprintf(" WHERE TS > %d", end), // empty: past the data
			func(int64, string, int64, float64) bool { return false }},
		{fmt.Sprintf(" WHERE Tid = %d", k),
			func(tid int64, _ string, _ int64, _ float64) bool { return tid == k }},
		{fmt.Sprintf(" WHERE Tid IN (%d, 1) AND TS < %d", k, hi),
			func(tid int64, _ string, ts int64, _ float64) bool { return (tid == k || tid == 1) && ts < hi }},
		{" WHERE Park = 'P0'",
			func(_ int64, park string, _ int64, _ float64) bool { return park == "P0" }},
		{fmt.Sprintf(" WHERE Park = 'P1' AND TS >= %d", lo),
			func(_ int64, park string, ts int64, _ float64) bool { return park == "P1" && ts >= lo }},
		{fmt.Sprintf(" WHERE (Park = 'P1' OR Tid = %d) AND TS <= %d", k, hi),
			func(tid int64, park string, ts int64, _ float64) bool { return (park == "P1" || tid == k) && ts <= hi }},
		{fmt.Sprintf(" WHERE Value < %v", x),
			func(_ int64, _ string, _ int64, v float64) bool { return v < x }},
		{fmt.Sprintf(" WHERE Value >= %v AND Tid != %d", x, k),
			func(tid int64, _ string, _ int64, v float64) bool { return v >= x && tid != k }},
		{fmt.Sprintf(" WHERE Value IN (%v, %v)", a, b),
			func(_ int64, _ string, _ int64, v float64) bool { return v == a || v == b }},
		{fmt.Sprintf(" WHERE TS != %d", one),
			func(_ int64, _ string, ts int64, _ float64) bool { return ts != one }},
		{fmt.Sprintf(" WHERE TS IN (%d, %d, %d)", one, lo, end+1000),
			func(_ int64, _ string, ts int64, _ float64) bool { return ts == one || ts == lo }},
		{" WHERE Park IN ('P0', 'P2')",
			func(_ int64, park string, _ int64, _ float64) bool { return park == "P0" }},
		{fmt.Sprintf(" WHERE Tid BETWEEN 2 AND %d", k),
			func(tid int64, _ string, _ int64, _ float64) bool { return tid >= 2 && tid <= k }},
		{fmt.Sprintf(" WHERE (Value > %v OR Tid = %d) AND TS >= %d", x, k, lo),
			func(tid int64, _ string, ts int64, v float64) bool { return (v > x || tid == k) && ts >= lo }},
	}
}

// TestPropertyFoldEqualsReconstruct: a DataPoint-view aggregate folded
// on the models must answer what the reconstructed points answer.
// COUNT, MIN and MAX are exactly equal — to the forced per-point
// engine and to a brute-force pass over an unfiltered row scan — and
// SUM and AVG agree within 1e-6 relative (the fold sums the model's
// float64 line, the points are float32-rounded).
func TestPropertyFoldEqualsReconstruct(t *testing.T) {
	const aggs = "COUNT(*), MIN(Value), MAX(Value), SUM(Value), AVG(Value)"
	ctx := context.Background()
	mids := map[int64]bool{}
	for seed := int64(1); seed <= 24; seed++ {
		fold, points, nSeries, maxTick := foldDB(t, seed)
		segs, err := fold.Execute(ctx, "SELECT Mid FROM Segment")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range segs.Rows {
			mids[row[0].(int64)] = true
		}
		scan, err := points.Execute(ctx, "SELECT Tid, Park, TS, Value FROM DataPoint")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, w := range foldWheres(rng, nSeries, maxTick, scan) {
			for _, group := range []string{"", "Tid", "Park"} {
				sql := "SELECT " + aggs + " FROM DataPoint" + w.sql
				if group != "" {
					sql = "SELECT " + group + ", " + aggs + " FROM DataPoint" + w.sql + " GROUP BY " + group + " ORDER BY " + group
				}
				want := bruteForce(scan, group, w.keep)
				for _, par := range []int{1, 4} {
					for _, eng := range []*Engine{fold, points} {
						eng.SetParallelism(par)
						eng.chunk = rng2Chunk(seed)
					}
					got, err := fold.Execute(ctx, sql)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, sql, err)
					}
					ref, err := points.Execute(ctx, sql)
					if err != nil {
						t.Fatalf("seed %d: %s (per point): %v", seed, sql, err)
					}
					if err := sameAggregates(got, ref, group != ""); err != nil {
						t.Fatalf("seed %d par %d: %s: fold vs per point: %v", seed, par, sql, err)
					}
					if err := sameAggregates(got, want, group != ""); err != nil {
						t.Fatalf("seed %d par %d: %s: fold vs brute force: %v", seed, par, sql, err)
					}
				}
			}
		}
	}
	for _, mid := range []models.MID{models.MidPMC, models.MidSwing, models.MidGorilla, models.MidMultiBase, models.MidMultiBase + 1} {
		if !mids[int64(mid)] {
			t.Errorf("no generated segment uses model %d; the property does not cover its fold", mid)
		}
	}
}

// bruteForce aggregates the rows of SELECT Tid, Park, TS, Value that
// keep accepts, grouped by nothing, Tid or Park, into the shape of the
// aggregate queries above (key first when grouped, sorted by key).
func bruteForce(scan *Result, group string, keep func(tid int64, park string, ts int64, v float64) bool) *Result {
	states := map[any]*ScalarState{}
	var keys []any
	for _, row := range scan.Rows {
		tid, park, ts, v := row[0].(int64), row[1].(string), row[2].(int64), row[3].(float64)
		if !keep(tid, park, ts, v) {
			continue
		}
		var key any
		switch group {
		case "Tid":
			key = tid
		case "Park":
			key = park
		}
		s, ok := states[key]
		if !ok {
			st := NewScalarState()
			s = &st
			states[key] = s
			keys = append(keys, key)
		}
		s.AddPoint(v)
	}
	res := &Result{}
	for _, key := range keys {
		s := states[key]
		row := []any{float64(s.Count), s.Min, s.Max, s.Sum, s.Sum / float64(s.Count)}
		if group != "" {
			row = append([]any{key}, row...)
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return refCompare(res.Rows[i][0], res.Rows[j][0]) < 0 })
	return res
}

// sameAggregates compares COUNT, MIN, MAX, SUM, AVG rows (after the
// key column when keyed): the first three exactly, the last two within
// 1e-6 relative.
func sameAggregates(got, want *Result, keyed bool) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if keyed {
			if g[0] != w[0] {
				return fmt.Errorf("row %d key %v, want %v", i, g[0], w[0])
			}
			g, w = g[1:], w[1:]
		}
		for c, name := range []string{"COUNT", "MIN", "MAX", "SUM", "AVG"} {
			a, b := g[c].(float64), w[c].(float64)
			if c < 3 && a != b {
				return fmt.Errorf("row %d %s = %v, want exactly %v", i, name, a, b)
			}
			if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(b)) {
				return fmt.Errorf("row %d %s = %v, want %v within 1e-6", i, name, a, b)
			}
		}
	}
	return nil
}

// classifyConjuncts is the table of the WHERE compiler's classes: which
// class a conjunct lands in on each view, or the error compiling it
// reports.
var classifyConjuncts = []struct {
	view, where string
	want        predClass
	wantErr     string
}{
	{"DataPoint", "Tid = 1", classSeries, ""},
	{"DataPoint", "Tid > 1", classSeries, ""},
	{"DataPoint", "Tid IN (1, 2)", classSeries, ""},
	{"DataPoint", "Park = 'Aalborg'", classSeries, ""},
	{"DataPoint", "Category IN ('Production')", classSeries, ""},
	{"DataPoint", "Tid = 1 OR Park = 'Farsø'", classSeries, ""},
	{"DataPoint", "TS = 5000", classTime, ""},
	{"DataPoint", "TS < 5000", classTime, ""},
	{"DataPoint", "TS <= 5000", classTime, ""},
	{"DataPoint", "TS > 5000", classTime, ""},
	{"DataPoint", "TS >= '1970-01-01 00:00:05'", classTime, ""},
	{"DataPoint", "TS BETWEEN 1000 AND 2000", classTime, ""},
	{"DataPoint", "TS != 5000", classPoint, ""},
	{"DataPoint", "TS IN (1000, 2000)", classPoint, ""},
	{"DataPoint", "TS < 1000 OR TS > 9000", classPoint, ""},
	{"DataPoint", "TS < 1000 OR Tid = 1", classPoint, ""},
	{"DataPoint", "Value > 0", classPoint, ""},
	{"DataPoint", "Value BETWEEN 0 AND 1", classPoint, ""},
	{"DataPoint", "Value > 0 OR Tid = 1", classPoint, ""},
	{"DataPoint", "EndTime < 5000", 0, "only available on the Segment view"},
	{"DataPoint", "Nope = 1", 0, "unknown column"},
	{"Segment", "Tid = 1", classSeries, ""},
	{"Segment", "EndTime < 5000", classSeries, ""},
	{"Segment", "Mid = 2 OR StartTime >= 1000", classSeries, ""},
	{"Segment", "TS <= 5000", classTime, ""},
	{"Segment", "TS BETWEEN 1000 AND 2000", classTime, ""},
	{"Segment", "Value > 0", 0, "only available on the DataPoint view"},
	{"DataPoint", "Park > 5", 0, "compares with strings"},
	{"DataPoint", "Value IN (1, 'x')", 0, "compares with numbers"},
	{"DataPoint", "Tid = 'abc'", 0, "cannot parse"},
	{"Segment", "Gaps = 3", 0, "compares with strings"},
	{"Segment", "Gaps != '[2]' OR Mid IN (1, '1970-01-01')", classSeries, ""},
}

// classifyClauses is the table of the WHERE splitter: what a whole
// clause splits into, or the error compiling it reports.
var classifyClauses = []struct {
	view, where   string
	series, point int // conjuncts in each part
	trange        timeRange
	wantErr       string
}{
	{"DataPoint", "Value > 0 AND Tid = 1", 1, 1, allTime(), ""},
	{"DataPoint", "Tid = 1 AND TS > 1000 AND TS < 5000 AND Park = 'Aalborg'", 2, 0, timeRange{1001, 4999}, ""},
	{"DataPoint", "TS >= 1000 AND TS <= 5000 AND TS BETWEEN 2000 AND 9000", 0, 0, timeRange{2000, 5000}, ""},
	{"DataPoint", "TS = 3000 AND TS != 4000", 0, 1, timeRange{3000, 3000}, ""},
	{"DataPoint", "(TS < 1000 OR TS > 9000) AND Value < 5 AND Tid IN (1, 2)", 1, 2, allTime(), ""},
	{"DataPoint", "TS > 5000 AND TS < 2000", 0, 0, timeRange{5001, 1999}, ""},
	{"Segment", "Tid = 1 AND TS < 5000 AND EndTime > 100", 2, 0, timeRange{allTime().from, 4999}, ""},
	{"Segment", "TS != 5000", 0, 0, allTime(), "simple AND conditions"},
	{"Segment", "TS IN (1000)", 0, 0, allTime(), "simple AND conditions"},
	{"Segment", "TS < 1000 OR TS > 9000", 0, 0, allTime(), "simple AND conditions"},
	{"Segment", "Tid = 1 OR TS > 9000", 0, 0, allTime(), "simple AND conditions"},
	{"DataPoint", "TS < 'yesterday'", 0, 0, allTime(), "cannot parse"},
	{"DataPoint", "TS BETWEEN 'a' AND 5", 0, 0, allTime(), "cannot parse"},
}

// TestClassifyWhere checks both tables: which class a conjunct lands in
// on each view, and what a whole clause splits into.
func TestClassifyWhere(t *testing.T) {
	f := newFixture(t)
	parse := func(view, where string) *sqlparse.Query {
		t.Helper()
		q, err := sqlparse.Parse("SELECT * FROM " + view + " WHERE " + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return q
	}
	for _, tc := range classifyConjuncts {
		q := parse(tc.view, tc.where)
		c, err := f.eng.compilePred(q.Where, q.From)
		got := c.class()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: %s: err = %v, want %q", tc.view, tc.where, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %s: %v", tc.view, tc.where, err)
		case got != tc.want:
			t.Errorf("%s: %s: class %d, want %d", tc.view, tc.where, got, tc.want)
		}
	}

	for _, tc := range classifyClauses {
		q := parse(tc.view, tc.where)
		push, split, err := f.eng.analyzeWhere(q.Where, q.From)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: %s: err = %v, want %q", tc.view, tc.where, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %s: %v", tc.view, tc.where, err)
			continue
		}
		if s, p := len(split.series.kids), len(split.point.kids); s != tc.series || p != tc.point || push.trange != tc.trange {
			t.Errorf("%s: %s: %d series, %d point, range %v; want %d, %d, %v",
				tc.view, tc.where, s, p, push.trange, tc.series, tc.point, tc.trange)
		}
		if push.prune.from < push.trange.from || push.prune.to > push.trange.to {
			t.Errorf("%s: %s: prune range %v wider than the exact range %v", tc.view, tc.where, push.prune, push.trange)
		}
	}
}

// TestStrictTimestampBounds is the regression test for strict TS
// comparisons: both views and a count worked out from the fixture's
// grid must agree for every operator, with X on and off the sampling
// grid, at the first and last timestamp, and for an empty result.
func TestStrictTimestampBounds(t *testing.T) {
	f := newFixture(t)
	last := int64(fixTicks-1) * fixSI
	countIf := func(keep func(ts int64) bool) int64 {
		var n int64
		for tick := int64(0); tick < fixTicks; tick++ {
			if keep(tick * fixSI) {
				n++
			}
		}
		return n
	}
	count := func(sql string) int64 {
		t.Helper()
		res := mustQuery(t, f, sql)
		if len(res.Rows) == 0 {
			return 0 // an empty aggregate returns no row
		}
		return int64(res.Rows[0][0].(float64))
	}
	for _, x := range []int64{0, 10 * fixSI, 10*fixSI + 1, 10*fixSI - 1, 10*fixSI + fixSI/2, last, last + 1, -1, -fixSI, last + fixSI} {
		preds := []struct {
			where string
			keep  func(ts int64) bool
		}{
			{fmt.Sprintf("TS = %d", x), func(ts int64) bool { return ts == x }},
			{fmt.Sprintf("TS < %d", x), func(ts int64) bool { return ts < x }},
			{fmt.Sprintf("TS <= %d", x), func(ts int64) bool { return ts <= x }},
			{fmt.Sprintf("TS > %d", x), func(ts int64) bool { return ts > x }},
			{fmt.Sprintf("TS >= %d", x), func(ts int64) bool { return ts >= x }},
			{fmt.Sprintf("TS BETWEEN %d AND %d", x, x+3*fixSI), func(ts int64) bool { return ts >= x && ts <= x+3*fixSI }},
			{fmt.Sprintf("TS > %d AND TS < %d", x, x+fixSI), func(ts int64) bool { return ts > x && ts < x+fixSI }},
		}
		for _, p := range preds {
			want := countIf(p.keep)
			seg := count("SELECT COUNT_S(*) FROM Segment WHERE Tid = 1 AND " + p.where)
			dp := count("SELECT COUNT(*) FROM DataPoint WHERE Tid = 1 AND " + p.where)
			rows := int64(len(mustQuery(t, f, "SELECT TS FROM DataPoint WHERE Tid = 1 AND "+p.where).Rows))
			if seg != want || dp != want || rows != want {
				t.Errorf("%s: COUNT_S = %d, COUNT = %d, rows = %d, want %d", p.where, seg, dp, rows, want)
			}
		}
	}
}

// TestFoldTraceCounters: the trace says how a query was answered. The
// four agg_datapoint panel shapes reconstruct nothing; a Value
// predicate reconstructs every point the other conjuncts leave.
func TestFoldTraceCounters(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	col := &traceCollector{}
	m := col.install(f.eng, reg)
	ctx := context.Background()
	run := func(sql string) (*Result, *obs.Trace) {
		t.Helper()
		res, err := f.eng.Execute(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res, col.take(t)
	}
	var folded int64
	for _, par := range []int{1, 4} {
		f.eng.SetParallelism(par)
		f.eng.chunk = 3
		for _, sql := range []string{
			"SELECT SUM(Value), COUNT(*), MIN(Value), MAX(Value) FROM DataPoint",
			"SELECT Category, SUM(Value) FROM DataPoint WHERE Category = 'Production' GROUP BY Category",
			"SELECT Entity, Tid, SUM(Value) FROM DataPoint GROUP BY Entity, Tid",
			"SELECT Tid, SUM(Value) FROM DataPoint WHERE Tid IN (1, 2, 4) GROUP BY Tid",
			"SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint WHERE Tid = 2 AND TS BETWEEN 5000 AND 900000 GROUP BY Tid",
		} {
			_, tr := run(sql)
			if tr.Count(obs.DecodedPoints) != 0 || tr.Count(obs.FoldedSeries) == 0 {
				t.Errorf("par %d: %s: decoded_points = %d, folded_series = %d; want 0 and > 0", par, sql, tr.Count(obs.DecodedPoints), tr.Count(obs.FoldedSeries))
			}
			folded += tr.Count(obs.FoldedSeries)
		}
	}
	if m.Counts[obs.FoldedSeries].Value() != folded || m.Counts[obs.DecodedPoints].Value() != 0 {
		t.Fatalf("registry folded=%d decoded=%d, want %d and 0", m.Counts[obs.FoldedSeries].Value(), m.Counts[obs.DecodedPoints].Value(), folded)
	}

	const scope = " FROM DataPoint WHERE Tid IN (1, 4) AND TS >= 1000"
	all, _ := run("SELECT COUNT(*)" + scope)
	points := int64(all.Rows[0][0].(float64))
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(Value)" + scope + " AND Value > 0",  // keeps nearly all
		"SELECT COUNT(*), SUM(Value)" + scope + " AND Value > 99", // keeps some
		"SELECT Tid, TS, Value" + scope,                           // a row scan decodes what it emits
	} {
		_, tr := run(sql)
		if tr.Count(obs.DecodedPoints) != points || tr.Count(obs.FoldedSeries) != 0 {
			t.Errorf("%s: decoded_points = %d, folded_series = %d; want COUNT(*) = %d and 0", sql, tr.Count(obs.DecodedPoints), tr.Count(obs.FoldedSeries), points)
		}
	}
	if got := m.Counts[obs.DecodedPoints].Value(); got != 3*points {
		t.Fatalf("registry decoded points = %d, want %d", got, 3*points)
	}

	// The streaming cursor reports through the same trace.
	rows, err := f.eng.QueryRowsSQL(ctx, "SELECT TS, Value"+scope)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	if tr := col.take(t); tr.Count(obs.DecodedPoints) != points {
		t.Fatalf("cursor decoded_points = %d, want %d", tr.Count(obs.DecodedPoints), points)
	}
}
