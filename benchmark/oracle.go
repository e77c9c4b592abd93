package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// table is a query answer as the client saw it: cells are int64,
// float64 or string whichever path (Result rows, parsed CSV) it took.
type table struct {
	cols []string
	rows [][]any
}

// num reads a numeric cell.
func num(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// acc is the raw-point truth for one result group.
type acc struct {
	count  int64
	sum    float64
	min    float64
	max    float64
	sumAbs float64
	maxAbs float64
}

func (a *acc) add(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
	a.sumAbs += math.Abs(v)
	a.maxAbs = math.Max(a.maxAbs, math.Abs(v))
}

// expectation is what the raw points say one query must return.
type expectation struct {
	q      qspec
	groups map[string]*acc // keyed by group cells (and cube bucket)
	// rows is the number of result rows: matching points for a row
	// query, groups otherwise.
	rows int
}

// oracle answers qspecs from the generated raw points, independently
// of every layer of the system under test.
type oracle struct {
	in *inputs
	// columns maps a dimension level name to each series' member there.
	columns map[string][]string
}

func newOracle(in *inputs) *oracle {
	o := &oracle{in: in, columns: map[string][]string{}}
	for _, d := range in.ds.Dimensions {
		for l, level := range d.Levels {
			col := make([]string, len(in.ds.Series))
			for i, sp := range in.ds.Series {
				col[i] = sp.Members[d.Name][l]
			}
			o.columns[level] = col
		}
	}
	return o
}

// bucket is the oracle's own calendar arithmetic for the two roll-up
// levels the panels use (UTC, bucket keyed by its first millisecond).
func bucket(level string, ts int64) int64 {
	t := time.UnixMilli(ts).UTC()
	if level == "MONTH" {
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).UnixMilli()
	}
	return t.Truncate(time.Hour).UnixMilli()
}

// wanted marks, by Tid, the series q's Tid and member predicates select.
func (o *oracle) wanted(q qspec) []bool {
	n := len(o.in.ds.Series)
	keep := make([]bool, n+1)
	for tid := 1; tid <= n; tid++ {
		keep[tid] = len(q.tids) == 0
	}
	for _, t := range q.tids {
		keep[t] = true
	}
	if q.member[0] != "" {
		col := o.columns[q.member[0]]
		for tid := 1; tid <= n; tid++ {
			keep[tid] = keep[tid] && col[tid-1] == q.member[1]
		}
	}
	return keep
}

// groupKey joins a result row's first g cells the way expect keys its
// groups.
func groupKey(row []any, g int) string {
	parts := make([]string, g)
	for i := range parts {
		parts[i] = fmt.Sprint(row[i])
	}
	return strings.Join(parts, "\x1f")
}

// expect evaluates q over the raw points.
func (o *oracle) expect(q qspec) *expectation {
	e := &expectation{q: q, groups: map[string]*acc{}}
	n := len(o.in.ds.Series)
	keep := o.wanted(q)
	prefix := make([]string, n+1)
	for tid := 1; tid <= n; tid++ {
		parts := make([]string, len(q.group))
		for i, g := range q.group {
			if g == "Tid" {
				parts[i] = fmt.Sprint(tid)
			} else {
				parts[i] = o.columns[g][tid-1]
			}
		}
		prefix[tid] = strings.Join(parts, "\x1f")
	}
	// Points arrive tick-major, so the bucket suffix and the per-series
	// accumulators change only when the bucket does.
	lastTS, lastBucket, suffix := int64(math.MinInt64), int64(math.MinInt64), ""
	cur := make([]*acc, n+1)
	for _, p := range o.in.points {
		if !keep[p.Tid] || (q.ranged && (p.TS < q.from || p.TS > q.to)) {
			continue
		}
		if q.cube != "" && p.TS != lastTS {
			lastTS = p.TS
			if b := bucket(q.cube, p.TS); b != lastBucket {
				lastBucket, suffix = b, fmt.Sprintf("\x1f%d", b)
				clear(cur)
			}
		}
		a := cur[p.Tid]
		if a == nil {
			key := prefix[p.Tid] + suffix
			if q.rows {
				key = ""
			}
			if a = e.groups[key]; a == nil {
				a = &acc{}
				e.groups[key] = a
			}
			cur[p.Tid] = a
		}
		a.add(float64(p.Value))
	}
	e.rows = len(e.groups)
	if q.rows {
		e.rows = 0
		if a := e.groups[""]; a != nil {
			e.rows = int(a.count)
		}
	}
	return e
}

// slack absorbs float summation order; the error bound comes on top.
const slack = 1e-9

// check compares an answer with the raw-point truth: row count exactly,
// every aggregate within the error bound eps (a fraction, 0 = lossless).
func (e *expectation) check(t *table, eps float64) error {
	if len(t.rows) != e.rows {
		return fmt.Errorf("%s: %d rows, oracle says %d", e.q.id, len(t.rows), e.rows)
	}
	g := len(e.q.group)
	if e.q.rows {
		// Row queries: the count matched above; the values must add up.
		want := e.groups[""]
		if want == nil {
			return nil
		}
		var sum float64
		for _, row := range t.rows {
			v, ok := num(row[len(row)-1])
			if !ok {
				return fmt.Errorf("%s: non-numeric Value cell %v", e.q.id, row[len(row)-1])
			}
			sum += v
		}
		if tol := (eps+slack)*want.sumAbs + 1e-6; math.Abs(sum-want.sum) > tol {
			return fmt.Errorf("%s: values sum to %g, oracle says %g ± %g", e.q.id, sum, want.sum, tol)
		}
		return nil
	}
	for _, row := range t.rows {
		key := groupKey(row, g)
		cells := row[g:]
		kinds := e.q.aggs
		if e.q.cube != "" {
			key += fmt.Sprintf("\x1f%v", row[g])
			cells, kinds = row[g+1:], []string{"SUM"}
		}
		want := e.groups[key]
		if want == nil {
			return fmt.Errorf("%s: unexpected group %q", e.q.id, key)
		}
		if len(cells) != len(kinds) {
			return fmt.Errorf("%s: row has %d aggregate cells, want %d", e.q.id, len(cells), len(kinds))
		}
		for i, kind := range kinds {
			got, ok := num(cells[i])
			if !ok {
				return fmt.Errorf("%s: non-numeric %s cell %v", e.q.id, kind, cells[i])
			}
			if err := want.within(kind, got, eps); err != nil {
				return fmt.Errorf("%s group %q: %w", e.q.id, key, err)
			}
		}
	}
	return nil
}

// within checks one aggregate value against the truth.
func (a *acc) within(kind string, got, eps float64) error {
	var want, tol float64
	switch kind {
	case "COUNT":
		want, tol = float64(a.count), 0
	case "SUM":
		want, tol = a.sum, (eps+slack)*a.sumAbs+1e-6
	case "MIN":
		want, tol = a.min, (eps+slack)*a.maxAbs+1e-6
	case "MAX":
		want, tol = a.max, (eps+slack)*a.maxAbs+1e-6
	case "AVG":
		want, tol = a.sum/float64(a.count), (eps+slack)*a.sumAbs/float64(a.count)+1e-6
	}
	if math.Abs(got-want) > tol {
		return fmt.Errorf("%s = %.9g, oracle says %.9g ± %.3g", kind, got, want, tol)
	}
	return nil
}

// collapse reduces an aggregate answer to per-group SUMs with cube
// buckets folded, the common shape of a Segment-view panel and its
// DataPoint-view twin.
func collapse(q qspec, t *table) (map[string]float64, error) {
	out := map[string]float64{}
	g := len(q.group)
	col := -1
	if q.cube != "" {
		col = g + 1
	} else {
		for i, a := range q.aggs {
			if a == "SUM" {
				col = g + i
			}
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("%s has no SUM to compare", q.id)
	}
	for _, row := range t.rows {
		v, ok := num(row[col])
		if !ok {
			return nil, fmt.Errorf("%s: non-numeric SUM cell %v", q.id, row[col])
		}
		out[groupKey(row, g)] += v
	}
	return out, nil
}

// sameSums checks that two views answered one question alike: both
// fold the same stored models, so they may differ by summation order
// only.
func sameSums(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d groups against %d", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return fmt.Errorf("group %q missing from one view", k)
		}
		if math.Abs(va-vb) > 1e-6*math.Max(math.Abs(va), math.Abs(vb))+1e-6 {
			return fmt.Errorf("group %q: %.9g against %.9g", k, va, vb)
		}
	}
	return nil
}
