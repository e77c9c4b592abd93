package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

// pointOnlyType is a user model as the extension API allows one: its
// view answers ValueAt and derives every range aggregate from it, and
// the type has no ViewInto. It fits and stores like Gorilla.
type pointOnlyType struct{ gorilla models.GorillaType }

func (pointOnlyType) MID() models.MID { return 90 }
func (pointOnlyType) Name() string    { return "PointOnly" }

func (t pointOnlyType) New(bound models.ErrorBound, nseries int) models.Model {
	return t.gorilla.New(bound, nseries)
}

func (t pointOnlyType) View(params []byte, nseries, length int) (models.AggView, error) {
	v, err := t.gorilla.View(params, nseries, length)
	if err != nil {
		return nil, err
	}
	return pointOnlyView{v}, nil
}

type pointOnlyView struct{ v models.AggView }

func (p pointOnlyView) Length() int                   { return p.v.Length() }
func (p pointOnlyView) NumSeries() int                { return p.v.NumSeries() }
func (p pointOnlyView) ValueAt(series, i int) float32 { return p.v.ValueAt(series, i) }

func (p pointOnlyView) SumRange(series, i0, i1 int) float64 {
	sum := 0.0
	for i := i0; i <= i1; i++ {
		sum += float64(p.ValueAt(series, i))
	}
	return sum
}

func (p pointOnlyView) MinRange(series, i0, i1 int) float64 {
	mn := math.Inf(1)
	for i := i0; i <= i1; i++ {
		mn = math.Min(mn, float64(p.ValueAt(series, i)))
	}
	return mn
}

func (p pointOnlyView) MaxRange(series, i0, i1 int) float64 {
	mx := math.Inf(-1)
	for i := i0; i <= i1; i++ {
		mx = math.Max(mx, float64(p.ValueAt(series, i)))
	}
	return mx
}

// runsEngine builds a randomized engine whose segments reach every
// kind of model a row scan reconstructs from: PMC, Swing and Gorilla
// (group 1), their Multi* wrappers (group 2) and a user model with a
// ValueAt-only view (group 3). Series carry scaling constants other
// than 1, and one series of a group falls silent for stretches, so
// segments have gaps. It returns the engine and the last timestamp.
func runsEngine(t testing.TB, seed int64) (*Engine, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema, err := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park", "Entity"}})
	if err != nil {
		t.Fatal(err)
	}
	multi := []models.ModelType{
		models.NewMulti(models.PMCType{}, models.MidMultiBase),
		models.NewMulti(models.SwingType{}, models.MidMultiBase+1),
		models.GorillaType{},
	}
	registry := func(types ...models.ModelType) *models.Registry {
		r := models.NewRegistry()
		for _, mt := range types {
			if err := r.Register(mt); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	groups := []*models.Registry{
		models.NewBuiltinRegistry(),
		registry(multi...),
		registry(pointOnlyType{}),
	}
	all := registry(models.PMCType{}, models.SwingType{}, models.GorillaType{}, multi[0], multi[1], pointOnlyType{})
	meta := core.NewMetadataCache()
	store := storage.NewMemStore(func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) })
	t.Cleanup(func() { store.Close() })
	const si = 100
	scalings := []float32{1, 2, 0.5, 10}
	tid := core.Tid(1)
	var last int64
	for g, reg := range groups {
		var tids []core.Tid
		for i, n := 0, rng.Intn(3)+1; i < n; i++ {
			err := meta.Add(&core.TimeSeries{
				Tid: tid, SI: si, Scaling: scalings[rng.Intn(len(scalings))],
				Members: map[string][]string{"Location": {fmt.Sprintf("P%d", g%2), fmt.Sprintf("E%d", tid)}},
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
		gi := core.NewGroupIngestor(core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  reg,
			Bound:     models.RelBound(float64(rng.Intn(3) * 5)),
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}, core.Gid(g+1), si, tids)
		ticks := rng.Intn(300) + 60
		base := rng.Float64()*100 + 10
		for tick := 0; tick < ticks; {
			shape, slope := rng.Intn(3), rng.NormFloat64()
			silent := core.Tid(0)
			if len(tids) > 1 && rng.Intn(3) == 0 {
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
					if err := gi.Append(tt, int64(tick)*si, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
		last = max(last, int64(ticks-1)*si)
	}
	return NewEngine(store, meta, all, schema), last
}

// referenceSelectSegment is the row scan as it was built before runs:
// one logical row at a time, each through a switch per column.
func referenceSelectSegment(e *Engine, p *plan, seg *core.Segment, b *ColumnBatch, sc *scanScratch) error {
	i0, i1, ok := seg.IndexRange(p.push.trange.from, p.push.trange.to)
	if !ok {
		return nil
	}
	active := sc.seriesOf(e.meta, seg)
	var view models.AggView
	row := logicalRow{seg: seg, isPoint: p.q.From == sqlparse.TableDataPoint}
	for pos, ts := range active {
		row.ts = ts
		if !sc.keepSeries(p, &row) {
			continue
		}
		if !row.isPoint {
			referenceAppendRow(p, b, &row)
			continue
		}
		if view == nil {
			v, err := e.viewFor(sc, seg, len(active))
			if err != nil {
				return err
			}
			view = v
		}
		scale := float64(ts.Scaling)
		for i := i0; i <= i1; i++ {
			row.pointTS = seg.TimestampAt(i)
			row.value = float64(view.ValueAt(pos, i)) / scale
			if p.where.point.eval(&row) {
				referenceAppendRow(p, b, &row)
			}
		}
	}
	return nil
}

func referenceAppendRow(p *plan, b *ColumnBatch, r *logicalRow) {
	for c, pi := range p.items {
		switch pi.ref.kind {
		case colTid:
			b.appendInt64(c, int64(r.ts.Tid))
		case colGid:
			b.appendInt64(c, int64(r.ts.Gid))
		case colSI:
			b.appendInt64(c, r.ts.SI)
		case colMember:
			b.appendString(c, r.ts.Member(pi.ref.dimension, pi.ref.level))
		case colStartTime:
			b.appendInt64(c, r.seg.StartTime)
		case colEndTime:
			b.appendInt64(c, r.seg.EndTime)
		case colMid:
			b.appendInt64(c, int64(r.seg.MID))
		case colGaps:
			b.appendString(c, fmt.Sprint(r.seg.GapTids))
		case colTS:
			b.appendInt64(c, r.pointTS)
		case colValue:
			b.appendFloat64(c, r.value)
		}
	}
	b.finishRow()
}

// diffBatches describes the first difference between two batches of
// one layout — length, ByteSize or a cell, floats by their bits — or
// returns "" when they are equal.
func diffBatches(got, want *ColumnBatch) string {
	if got.Len() != want.Len() || got.ByteSize() != want.ByteSize() {
		return fmt.Sprintf("%d rows of %d bytes, want %d rows of %d bytes", got.Len(), got.ByteSize(), want.Len(), want.ByteSize())
	}
	for c, typ := range want.Types() {
		for r := range want.Len() {
			var same bool
			switch typ {
			case ColInt64:
				same = got.Int64At(r, c) == want.Int64At(r, c)
			case ColFloat64:
				same = math.Float64bits(got.Float64At(r, c)) == math.Float64bits(want.Float64At(r, c))
			default:
				same = got.StringAt(r, c) == want.StringAt(r, c)
			}
			if !same {
				return fmt.Sprintf("row %d column %d is %v, want %v", r, c, got.ValueAt(r, c), want.ValueAt(r, c))
			}
		}
	}
	return ""
}

// checkRunsMatchRows scans every segment sql's plan selects, appending
// each to one batch run-wise and to another row by row, and fails t at
// the first segment after which the two batches differ.
func checkRunsMatchRows(t testing.TB, e *Engine, sql string) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	p, err := e.compile(q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if p.isAggregate {
		t.Fatalf("%s: not a row scan", sql)
	}
	got, want := NewColumnBatch(p.colTypes), NewColumnBatch(p.colTypes)
	scGot, scWant := getScratch(), getScratch()
	defer scGot.release(nil)
	defer scWant.release(nil)
	segs := 0
	err = e.store.Scan(context.Background(), p.scanFilter(), func(seg *core.Segment) error {
		segs++
		if err := e.selectSegment(p, seg, got, scGot); err != nil {
			return err
		}
		if err := referenceSelectSegment(e, p, seg, want, scWant); err != nil {
			return err
		}
		if d := diffBatches(got, want); d != "" {
			return fmt.Errorf("after segment %d (gid %d, end %d, mid %d): %s", segs, seg.Gid, seg.EndTime, seg.MID, d)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if segs == 0 {
		t.Fatalf("%s: scanned no segment", sql)
	}
}

// TestSelectRunsMatchRows: a row scan appended a (segment, series) run
// at a time equals the row-by-row reference cell for cell and ByteSize
// for ByteSize, after every segment — over PMC, Swing, Gorilla, the
// Multi* wrappers and a ValueAt-only user model, gaps, scaling
// constants other than 1, clipped TS ranges, Value and TS point
// conjuncts and every projection column of both views.
func TestSelectRunsMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		e, last := runsEngine(t, seed)
		mids := map[models.MID]bool{}
		e.store.Scan(context.Background(), storage.AllTime(), func(seg *core.Segment) error {
			mids[seg.MID] = true
			return nil
		})
		if !mids[pointOnlyType{}.MID()] {
			t.Fatalf("seed %d: no segment of the user model", seed)
		}
		mid, quarter := last/2, last/4
		for _, sql := range []string{
			"SELECT * FROM DataPoint",
			"SELECT * FROM Segment",
			"SELECT Gid, Tid, SI, Park, Entity, TS, Value, Tid FROM DataPoint",
			"SELECT Gid, Tid, SI, Park, Entity, StartTime, EndTime, Mid, Gaps FROM Segment",
			fmt.Sprintf("SELECT Tid, TS, Value FROM DataPoint WHERE TS BETWEEN %d AND %d", quarter+50, mid+50),
			fmt.Sprintf("SELECT Tid, TS, Value FROM DataPoint WHERE TS > %d AND TS < %d", quarter, mid),
			fmt.Sprintf("SELECT * FROM DataPoint WHERE TS >= %d", mid+1),
			fmt.Sprintf("SELECT * FROM Segment WHERE TS < %d", mid),
			"SELECT Tid, TS, Value FROM DataPoint WHERE Value > 60",
			"SELECT Value, Park FROM DataPoint WHERE Value <= 40 AND Tid != 2",
			fmt.Sprintf("SELECT Tid, TS, Value FROM DataPoint WHERE TS IN (%d, %d, %d)", quarter, mid, last),
			fmt.Sprintf("SELECT TS, Value FROM DataPoint WHERE TS != %d AND Value BETWEEN 20 AND 80", mid),
			fmt.Sprintf("SELECT Tid, TS, Value FROM DataPoint WHERE Value > 50 OR TS < %d", quarter),
			"SELECT Tid, TS, Value FROM DataPoint WHERE Value < -1e9",
			"SELECT Tid, Entity, TS FROM DataPoint WHERE Park = 'P1'",
			"SELECT Tid, Gaps, Mid FROM Segment WHERE Gaps != '[]'",
		} {
			checkRunsMatchRows(t, e, sql)
		}
	}
}

// FuzzSelectRuns: for any row scan the fuzzer composes — a view, a set
// of projected columns, a TS range and a Value or TS point conjunct —
// the run-wise batch equals the row-by-row reference after every
// segment.
func FuzzSelectRuns(f *testing.F) {
	f.Add(false, uint16(0x7), int64(0), int64(1<<40), uint8(0), 0.0)
	f.Add(true, uint16(0xff), int64(5000), int64(9000), uint8(1), 50.0)
	f.Add(false, uint16(0x3c), int64(-100), int64(20000), uint8(2), 30.5)
	f.Add(false, uint16(0x1), int64(3000), int64(3000), uint8(3), 0.0)
	f.Add(false, uint16(0x6), int64(100), int64(30000), uint8(4), 75.0)
	e, _ := runsEngine(f, 7)
	dataPoint := []string{"Tid", "TS", "Value", "Gid", "SI", "Park", "Entity", "TS", "Value"}
	segment := []string{"Tid", "StartTime", "EndTime", "SI", "Mid", "Gaps", "Gid", "Park", "Entity"}
	f.Fuzz(func(t *testing.T, onSegment bool, cols uint16, from, to int64, op uint8, v float64) {
		names, view := dataPoint, "DataPoint"
		if onSegment {
			names, view = segment, "Segment"
		}
		var proj []string
		for i, name := range names {
			if cols&(1<<i) != 0 {
				proj = append(proj, name)
			}
		}
		if len(proj) == 0 {
			proj = names[:1]
		}
		where := fmt.Sprintf("TS BETWEEN %d AND %d", from, to)
		if !onSegment && !math.IsNaN(v) && !math.IsInf(v, 0) {
			switch op % 5 {
			case 1:
				where += fmt.Sprintf(" AND Value > %g", v)
			case 2:
				where += fmt.Sprintf(" AND Value <= %g", v)
			case 3:
				where += fmt.Sprintf(" AND TS != %d", from+(to-from)/2)
			case 4:
				where += fmt.Sprintf(" AND (Value < %g OR TS IN (%d, %d))", v, from, to)
			}
		}
		sql := "SELECT " + strings.Join(proj, ", ") + " FROM " + view + " WHERE " + where
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		if _, err := e.compile(q); err != nil {
			return
		}
		checkRunsMatchRows(t, e, sql)
	})
}

// boxData returns the data word of a boxed cell: two cells share a box
// when their data words are equal and not nil.
func boxData(v any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
}

// TestBoxRefsSharesOnlyEqualCells: a boxed cell shares the box of the
// cell above it exactly when both hold the same bits and neither is
// NULL, within one span — NaN payloads, -0 beside +0, NULL above and
// below, int64, float64 and string columns, rows from two batches — and
// every boxed value is the cell's own.
func TestBoxRefsSharesOnlyEqualCells(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	negZero := math.Copysign(0, -1)
	type cell struct {
		i    int64
		f    float64
		null bool
		s    string
	}
	cells := []cell{
		{i: 1000, f: 1.5, s: "a"},
		{i: 1000, f: 1.5, s: "a"},
		{i: 1001, f: nan1, s: "a"},
		{i: 1001, f: nan1, s: "b"},
		{i: 1001, f: nan2, s: "b"},
		{i: 1000, f: 0, s: "b"},
		{i: 1000, f: negZero, s: "b"},
		{i: 1000, f: negZero, s: "a"},
		{i: 1000, f: 0, s: "a"},
		{i: 1000, null: true, s: "a"},
		{i: 1000, f: 0, s: "a"},
		{i: 1000, null: true, s: "a"},
		{i: 1000, null: true, s: "a"},
		{i: 1000, f: 0, s: "a"},
		{i: 2000, f: 2.5, s: "c"},
		{i: 2000, f: 2.5, s: "c"},
		{i: 2000, null: true, s: "c"},
		{i: 2000, f: 2.5, s: "c"},
	}
	types := []ColType{ColInt64, ColFloat64, ColString}
	bs := []*ColumnBatch{NewColumnBatch(types), NewColumnBatch(types)}
	var refs []rowRef
	for k, x := range cells {
		b := bs[k%2] // neighbouring rows come from different batches
		refs = append(refs, rowRef{int32(k % 2), int32(b.Len())})
		b.appendInt64(0, x.i)
		if x.null {
			b.appendNull(1)
		} else {
			b.appendFloat64(1, x.f)
		}
		b.appendString(2, x.s)
		b.finishRow()
	}
	// static reports whether Go boxes v without allocating, so that two
	// boxes of it share a data word whether or not boxRefs shares them.
	static := func(v any) bool {
		switch v := v.(type) {
		case float64:
			return math.Float64bits(v) < 256
		case int64:
			return v >= 0 && v < 256
		}
		return false
	}
	for _, spans := range []int{1, 2, 3} {
		rows := boxRefs(bs, refs, spans)
		first := map[int]bool{}
		for s := range spans {
			first[s*len(refs)/spans] = true
		}
		for i, row := range rows {
			ref := refs[i]
			b := bs[ref.part]
			for c := range types {
				want := b.ValueAt(int(ref.row), c)
				got := row[c]
				if f, ok := want.(float64); ok {
					g, ok := got.(float64)
					if !ok || math.Float64bits(g) != math.Float64bits(f) {
						t.Fatalf("spans %d row %d col %d: boxed %v, want %v", spans, i, c, got, want)
					}
				} else if got != want {
					t.Fatalf("spans %d row %d col %d: boxed %v, want %v", spans, i, c, got, want)
				}
				if i == 0 || got == nil {
					continue
				}
				if k := i - 2; !first[i] && !first[i-1] && rows[i-1][c] == nil && k >= 0 && rows[k][c] != nil &&
					boxData(got) == boxData(rows[k][c]) && !static(got) {
					t.Errorf("spans %d row %d col %d: %v shares a box across the NULL above it", spans, i, c, got)
				}
				above := rows[i-1][c]
				share := !first[i] && above != nil
				if share {
					switch v := got.(type) {
					case float64:
						share = math.Float64bits(v) == math.Float64bits(above.(float64))
					default:
						share = got == above
					}
				}
				shared := boxData(got) == boxData(above)
				if shared != share && (share || !static(got)) {
					t.Errorf("spans %d row %d col %d: %v below %v shares its box: %v, want %v", spans, i, c, got, above, shared, share)
				}
			}
		}
	}
}
