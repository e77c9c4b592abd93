package modelardb

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"modelardb/internal/models"
)

func windConfig() Config {
	return Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{
			{Name: "Location", Levels: []string{"Park", "Turbine"}},
			{Name: "Measure", Levels: []string{"Category", "Concrete"}},
		},
		Correlations: []string{"Location 1, Measure 1 Temperature"},
		Series: []SeriesConfig{
			{SI: 1000, Members: map[string][]string{
				"Location": {"Aalborg", "T1"}, "Measure": {"Temperature", "Nacelle"}}},
			{SI: 1000, Members: map[string][]string{
				"Location": {"Aalborg", "T2"}, "Measure": {"Temperature", "Nacelle"}}},
			{SI: 1000, Members: map[string][]string{
				"Location": {"Farsø", "T9"}, "Measure": {"Production", "MWh"}}},
		},
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.ErrorBound.IsLossless() {
		t.Fatal("default bound must be lossless")
	}
	if cfg.LengthLimit != 50 || cfg.SplitFraction != 10 || cfg.BulkWriteSize != 50000 {
		t.Fatalf("cfg = %+v, want Table 1 values", cfg)
	}
	// The default configuration must open once series are added.
	cfg.Dimensions = []Dimension{{Name: "Location", Levels: []string{"Park"}}}
	cfg.Series = []SeriesConfig{{SI: 1000, Members: map[string][]string{"Location": {"A"}}}}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestOpenPartitionsSeries(t *testing.T) {
	db, err := Open(windConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// T1 and T2 share a park and the Temperature category: one group.
	g1, _ := db.GroupOf(1)
	g2, _ := db.GroupOf(2)
	g3, _ := db.GroupOf(3)
	if g1 != g2 {
		t.Fatalf("series 1 and 2 in groups %d, %d; want same", g1, g2)
	}
	if g3 == g1 {
		t.Fatal("series 3 must be in its own group")
	}
	if len(db.Groups()) != 2 {
		t.Fatalf("groups = %v, want 2", db.Groups())
	}
	if got := db.GroupMembers(g1); len(got) != 2 {
		t.Fatalf("group members = %v", got)
	}
}

func TestIngestQueryEndToEnd(t *testing.T) {
	db, err := Open(windConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tick := 0; tick < 500; tick++ {
		ts := int64(tick) * 1000
		if err := db.Append(1, ts, 20); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(2, ts, 20); err != nil {
			t.Fatal(err)
		}
		if err := db.AppendPoint(DataPoint{Tid: 3, TS: ts, Value: float32(tick)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := res.Rows[0][1].(float64); got != 500*20 {
		t.Fatalf("sum series 1 = %g", got)
	}
	if got := res.Rows[2][1].(float64); got != 499*500/2 {
		t.Fatalf("sum series 3 = %g", got)
	}
	stats, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Series != 3 || stats.Groups != 2 || stats.DataPoints != 1500 || stats.Segments == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.StorageBytes <= 0 || stats.StorageBytes >= 1500*16 {
		t.Fatalf("storage = %d bytes, want compressed below %d", stats.StorageBytes, 1500*16)
	}
}

func TestAppendUnknownTid(t *testing.T) {
	db, err := Open(windConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append(99, 0, 1); err == nil {
		t.Fatal("unknown Tid must fail")
	}
}

func TestClosedDB(t *testing.T) {
	db, err := Open(windConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(1, 0, 1); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := db.Flush(); err == nil {
		t.Fatal("flush after close must fail")
	}
}

func TestDiskPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := windConfig()
	cfg.Path = dir
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 200; tick++ {
		ts := int64(tick) * 1000
		db.Append(1, ts, 7)
		db.Append(2, ts, 7)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: metadata and segments must be restored; Series in the
	// config is ignored.
	cfg2 := Config{Path: dir}
	db2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NumSeries() != 3 {
		t.Fatalf("series after reopen = %d, want 3", db2.NumSeries())
	}
	res, err := db2.Query(context.Background(), "SELECT SUM_S(*) FROM Segment WHERE Tid = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 200*7 {
		t.Fatalf("sum after reopen = %g, want 1400", got)
	}
	// Dimension columns survive too.
	res, err = db2.Query(context.Background(), "SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "Aalborg" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestModelUsage(t *testing.T) {
	db, err := Open(windConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Constants (PMC) then a ramp (Swing).
	for tick := 0; tick < 100; tick++ {
		db.Append(3, int64(tick)*1000, 5)
	}
	for tick := 100; tick < 200; tick++ {
		db.Append(3, int64(tick)*1000, float32(5+10*(tick-100)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	usage, err := db.ModelUsage()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, pct := range usage {
		total += pct
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("usage percentages sum to %g: %v", total, usage)
	}
	if usage["PMC"] == 0 || usage["Swing"] == 0 {
		t.Fatalf("usage = %v, want PMC and Swing both used", usage)
	}
}

func TestScalingFromCorrelationClause(t *testing.T) {
	cfg := Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{{Name: "Measure", Levels: []string{"Category"}}},
		Correlations: []string{
			"Measure 1 Production, Measure 1 Production 2.0",
		},
		Series: []SeriesConfig{
			{SI: 1000, Members: map[string][]string{"Measure": {"Production"}}},
			{SI: 1000, Members: map[string][]string{"Measure": {"Production"}}},
		},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g1, _ := db.GroupOf(1)
	g2, _ := db.GroupOf(2)
	if g1 != g2 {
		t.Fatal("production series must be grouped")
	}
	for tick := 0; tick < 100; tick++ {
		ts := int64(tick) * 1000
		db.Append(1, ts, 10)
		db.Append(2, ts, 10)
	}
	db.Flush()
	// The scaling constant (2.0) must cancel out at query time.
	res, err := db.Query(context.Background(), "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if got := row[1].(float64); math.Abs(got-10) > 1e-6 {
			t.Fatalf("avg = %g, want 10", got)
		}
	}
}

// stepModel is a user-defined model for the extension API test: it
// stores the first value and represents any run of values within the
// bound of that first value (a simpler PMC).
type stepModel struct {
	bound  ErrorBound
	first  float32
	length int
}

type stepType struct{}

func (stepType) MID() MID     { return models.MidUserBase }
func (stepType) Name() string { return "Step" }
func (stepType) New(bound ErrorBound, nseries int) Model {
	return &stepModel{bound: bound}
}
func (stepType) View(params []byte, nseries, length int) (AggView, error) {
	if len(params) != 4 {
		return nil, fmt.Errorf("step: want 4 bytes")
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(params))
	return stepView{v: v, n: nseries, l: length}, nil
}

func (m *stepModel) Append(values []float32) bool {
	if m.length == 0 {
		m.first = values[0]
	}
	for _, v := range values {
		if !m.bound.Within(float64(m.first), float64(v)) {
			return false
		}
	}
	m.length++
	return true
}
func (m *stepModel) Length() int { return m.length }
func (m *stepModel) Bytes(length int) ([]byte, error) {
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, math.Float32bits(m.first))
	return out, nil
}

type stepView struct {
	v    float32
	n, l int
}

func (s stepView) Length() int                         { return s.l }
func (s stepView) NumSeries() int                      { return s.n }
func (s stepView) ValueAt(series, i int) float32       { return s.v }
func (s stepView) SumRange(series, i0, i1 int) float64 { return float64(s.v) * float64(i1-i0+1) }
func (s stepView) MinRange(series, i0, i1 int) float64 { return float64(s.v) }
func (s stepView) MaxRange(series, i0, i1 int) float64 { return float64(s.v) }

func TestUserDefinedModel(t *testing.T) {
	cfg := windConfig()
	cfg.Models = []ModelType{stepType{}}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tick := 0; tick < 100; tick++ {
		db.Append(3, int64(tick)*1000, 42)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT AVG_S(*) FROM Segment WHERE Tid = 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 42 {
		t.Fatalf("avg = %g, want 42", got)
	}
}

func TestOpenErrors(t *testing.T) {
	// Dimension primitive without a level is invalid.
	cfg := windConfig()
	cfg.Correlations = []string{"Location"}
	if _, err := Open(cfg); err == nil {
		t.Fatal("bad clause must fail Open")
	}
	// Series missing a dimension.
	cfg = windConfig()
	cfg.Series[0].Members = map[string][]string{}
	if _, err := Open(cfg); err == nil {
		t.Fatal("invalid members must fail Open")
	}
	// Duplicate user model MID.
	cfg = windConfig()
	cfg.Models = []ModelType{models.PMCType{}}
	if _, err := Open(cfg); err == nil {
		t.Fatal("duplicate MID must fail Open")
	}
}

func TestErrorBoundReducesStorage(t *testing.T) {
	sizes := map[float64]int64{}
	for _, pct := range []float64{0, 10} {
		cfg := windConfig()
		cfg.ErrorBound = RelBound(pct)
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 2000; tick++ {
			ts := int64(tick) * 1000
			v := float32(100 + 3*math.Sin(float64(tick)/30))
			db.Append(1, ts, v)
			db.Append(2, ts, v+0.5)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		st, _ := db.Stats()
		sizes[pct] = st.StorageBytes
		db.Close()
	}
	if sizes[10] >= sizes[0] {
		t.Fatalf("10%% bound (%d B) must use less storage than lossless (%d B)", sizes[10], sizes[0])
	}
}

// TestOrderByNaNValues: a lossless bound stores NaN exactly (Gorilla's
// verify is bit-identical), so NaN reaches query results. ORDER BY
// sorts it below every number, at every parallelism, and WHERE Value
// comparisons use the same order: NaN is less than every literal and
// equal to none.
func TestOrderByNaNValues(t *testing.T) {
	nan := float32(math.NaN())
	values := []float32{3, nan, 1, -2, nan, 0}
	for _, par := range []int{1, 4} {
		cfg := windConfig()
		cfg.QueryParallelism = par
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range values {
			if err := db.Append(1, int64(i)*1000, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		var got []string
		res, err := db.Query(context.Background(), "SELECT TS, Value FROM DataPoint WHERE Tid = 1 ORDER BY Value, TS")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			got = append(got, fmt.Sprint(row...))
		}
		want := "[1000 NaN 4000 NaN 3000 -2 5000 0 2000 1 0 3]"
		if fmt.Sprint(got) != want {
			t.Errorf("parallelism %d: ORDER BY Value = %v, want %s", par, got, want)
		}
		for where, count := range map[string]string{"Value < 0.5": "4", "Value = 1": "1", "Value != 1": "5", "Value > -5": "4"} {
			res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM DataPoint WHERE Tid = 1 AND "+where)
			if err != nil {
				t.Fatal(err)
			}
			if n := fmt.Sprint(res.Rows[0][0]); n != count {
				t.Errorf("parallelism %d: WHERE %s counts %s, want %s", par, where, n, count)
			}
		}
		db.Close()
	}
}
