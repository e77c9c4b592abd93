package query

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

// fixture is a small database: group 1 = series 1-3 (Aalborg
// temperatures), group 2 = series 4 (Farsø production ramp). Values
// are ingested losslessly so expectations are exact. Two hours of
// 1-second data.
type fixture struct {
	eng    *Engine
	meta   *core.MetadataCache
	store  *storage.FileStore
	schema *dims.Schema
}

const (
	fixTicks = 7200 // two hours at SI=1s
	fixSI    = 1000
)

func fixValue(tid core.Tid, tick int) float64 {
	switch tid {
	case 1:
		return 100
	case 2:
		return 102
	case 3:
		return 104
	default:
		return float64(tick)
	}
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	schema, err := dims.NewSchema(
		dims.Dimension{Name: "Location", Levels: []string{"Park", "Entity"}},
		dims.Dimension{Name: "Measure", Levels: []string{"Category", "Concrete"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewMetadataCache()
	add := func(tid core.Tid, park, entity, category, concrete string, scaling float32) {
		t.Helper()
		err := meta.Add(&core.TimeSeries{
			Tid: tid, SI: fixSI, Scaling: scaling,
			Members: map[string][]string{
				"Location": {park, entity},
				"Measure":  {category, concrete},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add(1, "Aalborg", "T1", "Temperature", "Nacelle", 1)
	add(2, "Aalborg", "T2", "Temperature", "Nacelle", 2) // scaled series
	add(3, "Aalborg", "T3", "Temperature", "Gear", 1)
	add(4, "Farsø", "T9", "Production", "MWh", 1)
	for tid, gid := range map[core.Tid]core.Gid{1: 1, 2: 1, 3: 1, 4: 2} {
		if err := meta.SetGroup(tid, gid); err != nil {
			t.Fatal(err)
		}
	}
	store := storage.NewMemStore(func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) })
	ingest := func(gid core.Gid, tids []core.Tid) {
		t.Helper()
		cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  models.NewBuiltinRegistry(),
			Bound:     models.RelBound(0),
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}
		gi := core.NewGroupIngestor(cfg, gid, fixSI, tids)
		for tick := 0; tick < fixTicks; tick++ {
			for _, tid := range tids {
				ts, _ := meta.Series(tid)
				// The ingestion path multiplies by the scaling constant.
				v := float32(fixValue(tid, tick)) * ts.Scaling
				if err := gi.Append(tid, int64(tick)*fixSI, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(1, []core.Tid{1, 2, 3})
	ingest(2, []core.Tid{4})
	return &fixture{
		eng:    NewEngine(store, meta, models.NewBuiltinRegistry(), schema),
		meta:   meta,
		store:  store,
		schema: schema,
	}
}

func mustQuery(t *testing.T, f *fixture, sql string) *Result {
	t.Helper()
	res, err := f.eng.Execute(context.Background(), sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
}

func TestSumSSingleSeries(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT SUM_S(*) FROM Segment WHERE Tid = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	want := 100.0 * fixTicks
	if got := res.Rows[0][0].(float64); !approxEqual(got, want) {
		t.Fatalf("SUM_S = %g, want %g", got, want)
	}
}

func TestAggregatesPerTid(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Tid, COUNT_S(*), MIN_S(*), MAX_S(*), AVG_S(*) FROM Segment WHERE Tid IN (1, 2, 3) GROUP BY Tid ORDER BY Tid")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i, want := range []float64{100, 102, 104} {
		row := res.Rows[i]
		if row[0].(int64) != int64(i+1) {
			t.Fatalf("row %d tid = %v", i, row[0])
		}
		if cnt := row[1].(float64); cnt != fixTicks {
			t.Fatalf("count = %g, want %d", cnt, fixTicks)
		}
		if mn := row[2].(float64); !approxEqual(mn, want) {
			t.Fatalf("min = %g, want %g", mn, want)
		}
		if mx := row[3].(float64); !approxEqual(mx, want) {
			t.Fatalf("max = %g, want %g", mx, want)
		}
		if avg := row[4].(float64); !approxEqual(avg, want) {
			t.Fatalf("avg = %g, want %g", avg, want)
		}
	}
}

func TestScalingDividedAtQueryTime(t *testing.T) {
	f := newFixture(t)
	// Series 2 was ingested as value*2 with scaling 2: queries must
	// return the original values (§6.1).
	res := mustQuery(t, f, "SELECT AVG_S(*) FROM Segment WHERE Tid = 2")
	if got := res.Rows[0][0].(float64); !approxEqual(got, 102) {
		t.Fatalf("AVG_S = %g, want 102", got)
	}
}

func TestSegmentAndDataPointViewsAgree(t *testing.T) {
	f := newFixture(t)
	segRes := mustQuery(t, f, "SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2, 3, 4) GROUP BY Tid ORDER BY Tid")
	dpRes := mustQuery(t, f, "SELECT Tid, SUM(Value) FROM DataPoint WHERE Tid IN (1, 2, 3, 4) GROUP BY Tid ORDER BY Tid")
	if len(segRes.Rows) != len(dpRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(segRes.Rows), len(dpRes.Rows))
	}
	for i := range segRes.Rows {
		s := segRes.Rows[i][1].(float64)
		d := dpRes.Rows[i][1].(float64)
		if !approxEqual(s, d) {
			t.Fatalf("row %d: segment %g != datapoint %g", i, s, d)
		}
	}
}

func TestGroupByDimensionMember(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Category, SUM_S(*) FROM Segment GROUP BY Category ORDER BY Category")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Production: series 4 ramp; Temperature: 100+102+104 per tick.
	rampSum := float64(fixTicks-1) * fixTicks / 2
	if res.Rows[0][0].(string) != "Production" || !approxEqual(res.Rows[0][1].(float64), rampSum) {
		t.Fatalf("production row = %v, want sum %g", res.Rows[0], rampSum)
	}
	tempSum := float64(fixTicks) * (100 + 102 + 104)
	if res.Rows[1][0].(string) != "Temperature" || !approxEqual(res.Rows[1][1].(float64), tempSum) {
		t.Fatalf("temperature row = %v, want sum %g", res.Rows[1], tempSum)
	}
}

func TestWhereMemberPredicate(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT SUM_S(*) FROM Segment WHERE Concrete = 'Gear'")
	want := 104.0 * fixTicks
	if got := res.Rows[0][0].(float64); !approxEqual(got, want) {
		t.Fatalf("SUM_S = %g, want %g", got, want)
	}
}

func TestWhereParkDrillAcrossGroups(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park ORDER BY Park")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(string) != "Aalborg" || res.Rows[0][1].(float64) != 3*fixTicks {
		t.Fatalf("Aalborg row = %v", res.Rows[0])
	}
	if res.Rows[1][0].(string) != "Farsø" || res.Rows[1][1].(float64) != fixTicks {
		t.Fatalf("Farsø row = %v", res.Rows[1])
	}
}

func TestCubeSumHour(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Tid, CUBE_SUM_HOUR(*) FROM Segment WHERE Tid = 1 GROUP BY Tid")
	if len(res.Columns) != 3 || res.Columns[1] != "HOUR" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 hour buckets", res.Rows)
	}
	hourSum := 100.0 * 3600
	for i, row := range res.Rows {
		if row[0].(int64) != 1 {
			t.Fatalf("tid = %v", row[0])
		}
		wantBucket := int64(i) * 3600_000
		if row[1].(int64) != wantBucket {
			t.Fatalf("bucket = %v, want %d", row[1], wantBucket)
		}
		if !approxEqual(row[2].(float64), hourSum) {
			t.Fatalf("hour sum = %v, want %g", row[2], hourSum)
		}
	}
}

func TestCubeMatchesDataPointBuckets(t *testing.T) {
	f := newFixture(t)
	// Series 4 is a ramp: per-hour sums differ, so this checks real
	// boundary arithmetic. Hour h covers ticks [3600h, 3600h+3599].
	res := mustQuery(t, f, "SELECT CUBE_SUM_HOUR(*) FROM Segment WHERE Tid = 4")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	hour0 := float64(3599) * 3600 / 2
	hour1 := float64(3600+7199) * 3600 / 2
	if got := res.Rows[0][1].(float64); !approxEqual(got, hour0) {
		t.Fatalf("hour 0 sum = %g, want %g", got, hour0)
	}
	if got := res.Rows[1][1].(float64); !approxEqual(got, hour1) {
		t.Fatalf("hour 1 sum = %g, want %g", got, hour1)
	}
}

func TestCubeCyclicHourOfDay(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT CUBE_COUNT_HOUROFDAY(*) FROM Segment WHERE Tid = 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Buckets are the cyclic hours 0 and 1 with 3600 points each.
	for i, row := range res.Rows {
		if row[0].(int64) != int64(i) || row[1].(float64) != 3600 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestTSRangeOnSegmentView(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT SUM_S(*) FROM Segment WHERE Tid = 1 AND TS >= 3600000 AND TS <= 3603000")
	want := 100.0 * 4 // ticks 3600..3603
	if got := res.Rows[0][0].(float64); !approxEqual(got, want) {
		t.Fatalf("SUM_S = %g, want %g", got, want)
	}
}

func TestPointAndRangeQueries(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 4 AND TS BETWEEN 5000 AND 9000 ORDER BY TS")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for i, row := range res.Rows {
		wantTS := int64(5000 + i*1000)
		if row[1].(int64) != wantTS {
			t.Fatalf("ts = %v, want %d", row[1], wantTS)
		}
		if got := row[2].(float64); !approxEqual(got, float64(5+i)) {
			t.Fatalf("value = %g, want %d", got, 5+i)
		}
	}
	point := mustQuery(t, f, "SELECT Value FROM DataPoint WHERE Tid = 1 AND TS = 1000")
	if len(point.Rows) != 1 || !approxEqual(point.Rows[0][0].(float64), 100) {
		t.Fatalf("point query = %v", point.Rows)
	}
}

func TestValuePredicateOnDataPoints(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT COUNT(*) FROM DataPoint WHERE Tid = 4 AND Value < 10")
	if got := res.Rows[0][0].(float64); got != 10 {
		t.Fatalf("count = %g, want 10 (values 0..9)", got)
	}
}

func TestSelectStarSegmentView(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT * FROM Segment WHERE Tid = 1 LIMIT 3")
	wantCols := []string{"Tid", "StartTime", "EndTime", "SI", "Mid", "Gaps", "Park", "Entity", "Category", "Concrete"}
	if strings.Join(res.Columns, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 1 || res.Rows[0][6].(string) != "Aalborg" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestGapsColumn(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Tid, Gaps FROM Segment WHERE Tid = 1 LIMIT 1")
	if got := res.Rows[0][1].(string); got != "[]" {
		t.Fatalf("Gaps = %q, want [] for a gapless segment", got)
	}
	// Gaps is a Segment-view column only.
	if _, err := f.eng.Execute(context.Background(), "SELECT Gaps FROM DataPoint"); err == nil {
		t.Fatal("Gaps on the DataPoint view must fail")
	}
}

func TestSelectSegmentColumns(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT Tid, StartTime, EndTime, Mid FROM Segment WHERE Tid = 4 ORDER BY StartTime")
	if len(res.Rows) == 0 {
		t.Fatal("no segment rows")
	}
	prevEnd := int64(-1)
	for _, row := range res.Rows {
		start, end := row[1].(int64), row[2].(int64)
		if start <= prevEnd {
			t.Fatalf("segments overlap: start %d after end %d", start, prevEnd)
		}
		prevEnd = end
		if row[3].(int64) == 0 {
			t.Fatal("Mid must be set")
		}
	}
	if prevEnd != int64(fixTicks-1)*fixSI {
		t.Fatalf("last end = %d, want %d", prevEnd, int64(fixTicks-1)*fixSI)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT TS, Value FROM DataPoint WHERE Tid = 4 ORDER BY Value DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, want := range []float64{7199, 7198, 7197} {
		if got := res.Rows[i][1].(float64); !approxEqual(got, want) {
			t.Fatalf("row %d value = %g, want %g", i, got, want)
		}
	}
}

func TestGapsExcludedFromAggregates(t *testing.T) {
	// A dedicated tiny fixture with a gap in series 2.
	schema, _ := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park"}})
	meta := core.NewMetadataCache()
	for tid := core.Tid(1); tid <= 2; tid++ {
		meta.Add(&core.TimeSeries{Tid: tid, SI: 1000, Members: map[string][]string{"Location": {"P"}}})
		meta.SetGroup(tid, 1)
	}
	store := storage.NewMemStore(func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) })
	cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
		Registry:  models.NewBuiltinRegistry(),
		Bound:     models.RelBound(0),
		OnSegment: func(s *core.Segment) error { return store.Insert(s) },
	}}
	gi := core.NewGroupIngestor(cfg, 1, 1000, []core.Tid{1, 2})
	for tick := 0; tick < 100; tick++ {
		gi.Append(1, int64(tick)*1000, 10)
		if tick < 30 || tick >= 60 { // series 2 in a gap for ticks 30..59
			gi.Append(2, int64(tick)*1000, 20)
		}
	}
	if err := gi.Flush(); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store, meta, models.NewBuiltinRegistry(), schema)
	res, err := eng.Execute(context.Background(), "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].(float64) != 100 || !approxEqual(res.Rows[0][2].(float64), 1000) {
		t.Fatalf("series 1 = %v, want 100 points sum 1000", res.Rows[0])
	}
	if res.Rows[1][1].(float64) != 70 || !approxEqual(res.Rows[1][2].(float64), 1400) {
		t.Fatalf("series 2 = %v, want 70 points sum 1400", res.Rows[1])
	}
}

// partialOf runs q's worker-side part the way a cluster worker does:
// the streamed chunks folded into one partial by MergePartial.
func partialOf(e *Engine, q *sqlparse.Query) (*PartialResult, error) {
	acc := &PartialResult{}
	err := e.ExecutePartialChunks(context.Background(), q, 0, func(part *PartialResult) error {
		MergePartial(acc, part)
		return nil
	})
	return acc, err
}

// TestStorelessEngineRefusesScan: an engine without a store, as a
// cluster master's planner is built, fails every scan with ErrNoStore
// at every worker count, and still finalizes a worker's partial into
// the worker's own answer.
func TestStorelessEngineRefusesScan(t *testing.T) {
	f := newFixture(t)
	planner := NewEngine(nil, f.meta, models.NewBuiltinRegistry(), f.schema)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 4",
	} {
		q := mustParse(t, sql)
		for _, par := range []int{1, 4} {
			planner.SetParallelism(par)
			if _, err := planner.Execute(ctx, sql); !errors.Is(err, ErrNoStore) {
				t.Errorf("%q at %d: Execute = %v, want ErrNoStore", sql, par, err)
			}
			rows, err := planner.QueryRowsSQL(ctx, sql)
			if err == nil {
				for rows.Next() {
				}
				rows.Close()
				err = rows.Err()
			}
			if !errors.Is(err, ErrNoStore) {
				t.Errorf("%q at %d: QueryRowsSQL = %v, want ErrNoStore", sql, par, err)
			}
			err = planner.ExecutePartialChunks(ctx, q, 0, func(*PartialResult) error { return nil })
			if !errors.Is(err, ErrNoStore) {
				t.Errorf("%q at %d: ExecutePartialChunks = %v, want ErrNoStore", sql, par, err)
			}
		}
		part, err := partialOf(f.eng, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := planner.Finalize(q, []*PartialResult{part})
		if err != nil {
			t.Fatal(err)
		}
		if want := mustQuery(t, f, sql); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: planner Finalize = %v, want %v", sql, got.Rows, want.Rows)
		}
	}
}

func TestDistributedMergeMatchesSingleNode(t *testing.T) {
	f := newFixture(t)
	// Split the fixture's segments across two stores by group to
	// simulate two workers, then merge partial results.
	memberFn := func(gid core.Gid) []core.Tid { return f.meta.TidsOf(gid) }
	w1 := storage.NewMemStore(memberFn)
	w2 := storage.NewMemStore(memberFn)
	f.store.Scan(context.Background(), storage.Filter{From: math.MinInt64 / 4, To: math.MaxInt64 / 4}, func(s *core.Segment) error {
		if s.Gid == 1 {
			return w1.Insert(s)
		}
		return w2.Insert(s)
	})
	reg := models.NewBuiltinRegistry()
	e1 := NewEngine(w1, f.meta, reg, f.schema)
	e2 := NewEngine(w2, f.meta, reg, f.schema)
	sql := "SELECT Category, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Category ORDER BY Category"
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := partialOf(e1, q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := partialOf(e2, q)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := f.eng.Finalize(q, []*PartialResult{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	single := mustQuery(t, f, sql)
	if len(merged.Rows) != len(single.Rows) {
		t.Fatalf("rows = %d vs %d", len(merged.Rows), len(single.Rows))
	}
	for i := range merged.Rows {
		for c := range merged.Rows[i] {
			if f1, ok := merged.Rows[i][c].(float64); ok {
				if !approxEqual(f1, single.Rows[i][c].(float64)) {
					t.Fatalf("cell (%d,%d): %v vs %v", i, c, merged.Rows[i][c], single.Rows[i][c])
				}
			} else if merged.Rows[i][c] != single.Rows[i][c] {
				t.Fatalf("cell (%d,%d): %v vs %v", i, c, merged.Rows[i][c], single.Rows[i][c])
			}
		}
	}
}

func TestQueryErrors(t *testing.T) {
	f := newFixture(t)
	bad := []string{
		"SELECT SUM(Value) FROM Segment",                        // plain agg on segment view
		"SELECT SUM_S(*) FROM DataPoint",                        // segment agg on data points
		"SELECT Tid, SUM_S(*) FROM Segment",                     // Tid not grouped
		"SELECT CUBE_SUM_HOUR(*), CUBE_SUM_DAY(*) FROM Segment", // mixed levels
		"SELECT CUBE_SUM_HOUR(*), SUM_S(*) FROM Segment",        // cube + scalar
		"SELECT Value FROM Segment",                             // Value not on segment view
		"SELECT StartTime FROM DataPoint",                       // StartTime not on DPV
		"SELECT Nope FROM Segment",                              // unknown column
		"SELECT SUM_S(*) FROM Segment WHERE Tid = 1 OR TS > 5",  // TS under OR on segment view
		"SELECT *, SUM_S(*) FROM Segment",                       // * mixed with aggregates
		"SELECT Tid FROM Segment GROUP BY Tid",                  // group by without aggregates
		"SELECT SUM_S(Park) FROM Segment",                       // aggregate over member
		"SELECT * FROM Segment ORDER BY Nope",                   // unknown order column
		"SELECT Entity FROM Segment WHERE Category = 5",         // member compared to number
	}
	for _, sql := range bad {
		if _, err := f.eng.Execute(context.Background(), sql); err == nil {
			t.Errorf("Execute(%q) unexpectedly succeeded", sql)
		}
	}
	// Grouping by a column the view lacks is a compile error like
	// selecting it, so a cluster master's Validate refuses it before
	// scattering instead of every worker failing it segment by segment.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM DataPoint GROUP BY StartTime",
		"SELECT COUNT(*) FROM DataPoint GROUP BY EndTime",
		"SELECT COUNT(*) FROM DataPoint GROUP BY Gaps",
		"SELECT COUNT(*) FROM DataPoint GROUP BY Mid",
		"SELECT COUNT_S(*) FROM Segment GROUP BY TS",
		"SELECT COUNT_S(*) FROM Segment GROUP BY Value",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if err := f.eng.Validate(q); err == nil || !strings.Contains(err.Error(), "only available on the") {
			t.Errorf("Validate(%q) = %v, want a view error", sql, err)
		}
		if _, err := f.eng.Execute(context.Background(), sql); err == nil {
			t.Errorf("Execute(%q) unexpectedly succeeded", sql)
		}
	}
}

func TestEmptyResultAggregates(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT SUM_S(*) FROM Segment WHERE Park = 'Nowhere'")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
}

func TestTimestampStringLiterals(t *testing.T) {
	f := newFixture(t)
	// Tick 3600 is 1970-01-01T01:00:00Z.
	res := mustQuery(t, f, "SELECT COUNT(*) FROM DataPoint WHERE Tid = 1 AND TS >= '1970-01-01 01:00:00'")
	if got := res.Rows[0][0].(float64); got != 3600 {
		t.Fatalf("count = %g, want 3600", got)
	}
}

func TestQualifiedDimensionColumn(t *testing.T) {
	f := newFixture(t)
	res := mustQuery(t, f, "SELECT SUM_S(*) FROM Segment WHERE Location.Park = 'Farsø'")
	want := float64(fixTicks-1) * fixTicks / 2
	if got := res.Rows[0][0].(float64); !approxEqual(got, want) {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}
