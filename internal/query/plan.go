package query

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/sqlparse"
)

// columnKind classifies the columns the views expose.
type columnKind int

const (
	colUnknown columnKind = iota
	colTid
	colGid
	colTS        // Data Point View only
	colValue     // Data Point View only
	colStartTime // Segment View only
	colEndTime   // Segment View only
	colSI
	colMid
	colGaps   // Segment View only: the segment's gap Tids
	colMember // a dimension level column
)

// perSeries reports whether the column is constant per series, so a
// predicate or group key reading only such columns has one answer per
// Tid.
func (k columnKind) perSeries() bool {
	switch k {
	case colTid, colGid, colSI, colMember:
		return true
	}
	return false
}

// columnRef resolves a referenced column name.
type columnRef struct {
	kind      columnKind
	dimension string // for colMember
	level     int    // for colMember
	name      string // canonical output name
}

// resolveColumn maps a (possibly qualified) column name to a view
// column. Dimension level columns are referenced by level name, e.g.
// Park, or qualified as Location.Park.
func resolveColumn(schema *dims.Schema, name string) (columnRef, error) {
	switch strings.ToUpper(name) {
	case "TID":
		return columnRef{kind: colTid, name: "Tid"}, nil
	case "GID":
		return columnRef{kind: colGid, name: "Gid"}, nil
	case "TS", "TIMESTAMP":
		return columnRef{kind: colTS, name: "TS"}, nil
	case "VALUE":
		return columnRef{kind: colValue, name: "Value"}, nil
	case "STARTTIME":
		return columnRef{kind: colStartTime, name: "StartTime"}, nil
	case "ENDTIME":
		return columnRef{kind: colEndTime, name: "EndTime"}, nil
	case "SI":
		return columnRef{kind: colSI, name: "SI"}, nil
	case "MID":
		return columnRef{kind: colMid, name: "Mid"}, nil
	case "GAPS":
		return columnRef{kind: colGaps, name: "Gaps"}, nil
	}
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		d, ok := schema.Dimension(name[:dot])
		if !ok {
			return columnRef{}, fmt.Errorf("query: unknown dimension %q", name[:dot])
		}
		level := d.LevelOf(name[dot+1:])
		if level == 0 {
			return columnRef{}, fmt.Errorf("query: unknown level %q in dimension %s", name[dot+1:], d.Name)
		}
		return columnRef{kind: colMember, dimension: d.Name, level: level, name: d.Levels[level-1]}, nil
	}
	// Unqualified level name: search all dimensions; must be unique.
	var found columnRef
	for _, d := range schema.Dimensions() {
		if level := d.LevelOf(name); level != 0 {
			if found.kind == colMember {
				return columnRef{}, fmt.Errorf("query: ambiguous column %q; qualify as Dimension.Level", name)
			}
			found = columnRef{kind: colMember, dimension: d.Name, level: level, name: d.Levels[level-1]}
		}
	}
	if found.kind == colMember {
		return found, nil
	}
	return columnRef{}, fmt.Errorf("query: unknown column %q", name)
}

// timeRange is an inclusive timestamp interval.
type timeRange struct{ from, to int64 }

func allTime() timeRange { return timeRange{from: math.MinInt64 / 4, to: math.MaxInt64 / 4} }

func (r timeRange) intersect(o timeRange) timeRange {
	if o.from > r.from {
		r.from = o.from
	}
	if o.to < r.to {
		r.to = o.to
	}
	return r
}

func (r timeRange) union(o timeRange) timeRange {
	if o.from < r.from {
		r.from = o.from
	}
	if o.to > r.to {
		r.to = o.to
	}
	return r
}

// gidSet is nil for "unknown / all groups" or an explicit sorted set.
type gidSet []core.Gid

func (s gidSet) intersect(o gidSet) gidSet {
	if s == nil {
		return o
	}
	if o == nil {
		return s
	}
	out := gidSet{}
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

func (s gidSet) union(o gidSet) gidSet {
	if s == nil || o == nil {
		return nil
	}
	out := gidSet{}
	i, j := 0, 0
	for i < len(s) || j < len(o) {
		switch {
		case j >= len(o) || (i < len(s) && s[i] < o[j]):
			out = append(out, s[i])
			i++
		case i >= len(s) || o[j] < s[i]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// pushdown is what the WHERE clause analysis extracts for the scan:
// the groups to read (§6.2 query rewriting, Fig. 11), the exact time
// range every emitted point lies in, and the possibly narrower range
// the store may prune segments by (§3.3 EndTime push-down).
type pushdown struct {
	gids gidSet
	// trange is the intersection of the top-level TS conjuncts. It is
	// exact — timestamps are integral milliseconds, so strict bounds
	// clamp to X∓1 — and clips every segment's [i0, i1].
	trange timeRange
	// prune is trange narrowed by conservative hints (StartTime/EndTime
	// comparisons, the hull of an OR of TS ranges). It only selects
	// segments; the conjuncts behind the hints are still evaluated.
	prune timeRange
}

// whereSplit is the WHERE clause compiled and classified once, at
// compile time. Each part is an AND of top-level conjuncts (empty when
// none, which holds); the third class, the exact time range, lives in
// pushdown.trange.
type whereSplit struct {
	// series holds the conjuncts that read no TS or Value: they are
	// constant per (segment, series) row and evaluated once for it.
	series pred
	// point holds the conjuncts only a reconstructed data point can
	// decide: anything reading Value, TS IN / !=, an OR mixing classes.
	point pred
}

// predClass is the class of one top-level WHERE conjunct.
type predClass int

const (
	classSeries predClass = iota
	classTime
	classPoint
)

// predOp is a compiled predicate's operator.
type predOp uint8

const (
	opAnd predOp = iota // the zero pred is an AND of nothing: true
	opOr
	opIn
	opBetween
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]predOp{"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

// pred is a compiled WHERE (sub)expression: an AND or OR of kids, or a
// comparison, IN or BETWEEN of one resolved column against literals
// typed by that column's ColType — in the one slice of ints, floats
// and strs that type selects (IN's list, BETWEEN's lo and hi, or a
// comparison's one literal). Compiling rejects every predicate a row
// could not answer, so evaluation needs no name lookup, no boxing and
// no error path.
type pred struct {
	op     predOp
	kids   []pred
	ref    columnRef
	ints   []int64
	floats []float64
	strs   []string
}

// analyzeWhere is the one WHERE compiler: every top-level conjunct is
// compiled for the queried view, contributes its push-down and lands in
// exactly one class. Both views and both executors (aggregate and row
// scan) consume this split.
func (e *Engine) analyzeWhere(expr sqlparse.Expr, table sqlparse.Table) (pushdown, whereSplit, error) {
	push := pushdown{trange: allTime(), prune: allTime()}
	var split whereSplit
	if expr == nil {
		return push, split, nil
	}
	for _, x := range collectConjuncts(expr) {
		c, err := e.compilePred(x, table)
		if err != nil {
			return pushdown{}, whereSplit{}, err
		}
		h, err := e.hintOf(&c)
		if err != nil {
			return pushdown{}, whereSplit{}, err
		}
		push.gids = push.gids.intersect(h.gids)
		push.prune = push.prune.intersect(h.trange)
		switch c.class() {
		case classTime:
			push.trange = push.trange.intersect(h.trange)
		case classSeries:
			split.series.kids = append(split.series.kids, c)
		case classPoint:
			if table == sqlparse.TableSegment {
				return pushdown{}, whereSplit{}, fmt.Errorf("query: TS predicates on the Segment view must be simple AND conditions (=, <, <=, >, >=, BETWEEN)")
			}
			split.point.kids = append(split.point.kids, c)
		}
	}
	return push, split, nil
}

func collectConjuncts(expr sqlparse.Expr) []sqlparse.Expr {
	if be, ok := expr.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		return append(collectConjuncts(be.L), collectConjuncts(be.R)...)
	}
	return []sqlparse.Expr{expr}
}

// compilePred compiles a WHERE (sub)expression for the queried view:
// every column is resolved and checked against the view (TS also on
// the Segment view, which accepts it as a clamp; analyzeWhere rejects
// the uses that are not one), and every literal is typed by its
// column: an int64 column takes a number or a timestamp string, Value
// a number, a member or Gaps a string.
func (e *Engine) compilePred(expr sqlparse.Expr, table sqlparse.Table) (pred, error) {
	var c pred
	var name string
	var lits []sqlparse.Literal
	switch x := expr.(type) {
	case *sqlparse.BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			if x.Op == "OR" {
				c.op = opOr
			}
			for _, sub := range []sqlparse.Expr{x.L, x.R} {
				k, err := e.compilePred(sub, table)
				if err != nil {
					return pred{}, err
				}
				c.kids = append(c.kids, k)
			}
			return c, nil
		}
		ident, isIdent := x.L.(*sqlparse.Ident)
		lit, isLit := x.R.(*sqlparse.Literal)
		op, isCmp := cmpOps[x.Op]
		if !isIdent || !isLit || !isCmp {
			return pred{}, fmt.Errorf("query: unsupported comparison %s", x.Op)
		}
		c.op, name, lits = op, ident.Name, []sqlparse.Literal{*lit}
	case *sqlparse.InExpr:
		c.op, name, lits = opIn, x.Column, x.Values
	case *sqlparse.BetweenExpr:
		c.op, name, lits = opBetween, x.Column, []sqlparse.Literal{x.Lo, x.Hi}
	default:
		return pred{}, fmt.Errorf("query: unsupported predicate %T", expr)
	}
	ref, err := resolveColumn(e.schema, name)
	if err != nil {
		return pred{}, err
	}
	if ref.kind != colTS {
		if err := e.checkColumnTable(ref, table); err != nil {
			return pred{}, err
		}
	}
	if len(lits) == 0 {
		return pred{}, fmt.Errorf("query: %s IN needs at least one value", ref.name)
	}
	c.ref = ref
	for _, lit := range lits {
		switch colTypeOf(ref) {
		case ColInt64:
			v, err := literalTime(lit)
			if err != nil {
				return pred{}, err
			}
			c.ints = append(c.ints, v)
		case ColFloat64:
			if !lit.IsNumber {
				return pred{}, fmt.Errorf("query: column %s compares with numbers, not %q", ref.name, lit.Str)
			}
			c.floats = append(c.floats, lit.Number)
		default:
			if lit.IsNumber {
				return pred{}, fmt.Errorf("query: column %s compares with strings, not %g", ref.name, lit.Number)
			}
			c.strs = append(c.strs, lit.Str)
		}
	}
	return c, nil
}

// always reports whether c is the empty AND, which every row passes.
func (c *pred) always() bool { return c.op == opAnd && len(c.kids) == 0 }

// every reports whether f holds for every column c reads (the ops
// after opOr are the leaves).
func (c *pred) every(f func(columnKind) bool) bool {
	if c.op > opOr {
		return f(c.ref.kind)
	}
	for i := range c.kids {
		if !c.kids[i].every(f) {
			return false
		}
	}
	return true
}

// class assigns a top-level conjunct its class. A conjunct reading
// neither TS nor Value is classSeries; a lone TS comparison or BETWEEN
// the range expresses exactly is classTime; every other use of TS or
// Value needs the point.
func (c *pred) class() predClass {
	if c.every(func(k columnKind) bool { return k != colTS && k != colValue }) {
		return classSeries
	}
	if c.ref.kind == colTS && c.op != opIn && c.op != opNe {
		return classTime
	}
	return classPoint
}

// hint is the conservative push-down of a predicate: the groups and
// the time range outside which it cannot hold.
type hint struct {
	gids   gidSet
	trange timeRange
}

// hintOf extracts the push-down of a compiled predicate. For a TS
// comparison the range is exact, which is what lets analyzeWhere
// consume classTime conjuncts.
func (e *Engine) hintOf(c *pred) (hint, error) {
	h := hint{trange: allTime()}
	if c.op <= opOr {
		for i := range c.kids {
			k, err := e.hintOf(&c.kids[i])
			switch {
			case err != nil:
				return hint{}, err
			case i == 0:
				h = k
			case c.op == opAnd:
				h = hint{gids: h.gids.intersect(k.gids), trange: h.trange.intersect(k.trange)}
			default:
				h = hint{gids: h.gids.union(k.gids), trange: h.trange.union(k.trange)}
			}
		}
		return h, nil
	}
	switch c.ref.kind {
	case colTid:
		if c.op != opEq && c.op != opIn {
			return h, nil
		}
		tids := make([]core.Tid, len(c.ints))
		for i, v := range c.ints {
			tids[i] = core.Tid(v)
		}
		gids, err := e.meta.GidsForTids(tids)
		h.gids = gids
		return h, err
	case colMember:
		// §6.2: rewrite dimension members in the WHERE clause to the Gids
		// of groups containing series with that member; an IN list
		// rewrites to the union of the per-member Gid sets, so the scan
		// skips groups without any listed member.
		if c.op != opEq && c.op != opIn {
			return h, nil
		}
		h.gids = gidSet{}
		for _, s := range c.strs {
			h.gids = h.gids.union(e.meta.GidsForMember(c.ref.dimension, c.ref.level, s))
		}
	case colTS, colStartTime, colEndTime:
		// A TS bound is exact: timestamps are integral milliseconds, so a
		// strict bound is the neighbouring inclusive one. A StartTime or
		// EndTime bound only implies that the segment's [StartTime,
		// EndTime] meets the range (StartTime <= EndTime): a hint that
		// prunes while the series conjunct decides, so strictness is moot.
		strict := int64(0)
		if c.ref.kind == colTS {
			strict = 1
		}
		switch v := c.ints[0]; c.op {
		case opEq:
			h.trange = timeRange{from: v, to: v}
		case opBetween:
			h.trange = timeRange{from: v, to: c.ints[1]}
		case opLt:
			h.trange.to = v - strict
		case opLe:
			h.trange.to = v
		case opGt:
			h.trange.from = v + strict
		case opGe:
			h.trange.from = v
		}
	}
	return h, nil
}

// literalTime converts a literal to Unix milliseconds; strings are
// parsed as RFC 3339 or "2006-01-02 15:04:05" or "2006-01-02" in UTC.
func literalTime(lit sqlparse.Literal) (int64, error) {
	if lit.IsNumber {
		return int64(lit.Number), nil
	}
	for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if t, err := time.ParseInLocation(layout, lit.Str, time.UTC); err == nil {
			return t.UnixMilli(), nil
		}
	}
	return 0, fmt.Errorf("query: cannot parse %q as a timestamp", lit.Str)
}

// colTypeOf maps a resolved column to its batch vector type: values
// are float64, dimension members and the Gaps rendering are strings,
// everything else (timestamps, identifiers, intervals) is int64.
func colTypeOf(ref columnRef) ColType {
	switch ref.kind {
	case colValue:
		return ColFloat64
	case colMember, colGaps:
		return ColString
	default:
		return ColInt64
	}
}

// eval decides the predicate on a row: the series conjuncts on a
// (segment, series) row, the point conjuncts on a reconstructed point.
func (c *pred) eval(r *logicalRow) bool {
	switch c.op {
	case opAnd:
		for i := range c.kids {
			if !c.kids[i].eval(r) {
				return false
			}
		}
		return true
	case opOr:
		for i := range c.kids {
			if c.kids[i].eval(r) {
				return true
			}
		}
		return false
	}
	switch colTypeOf(c.ref) {
	case ColFloat64:
		return matches(c.op, r.value, c.floats, cmp.Compare[float64])
	case ColString:
		return matches(c.op, r.stringOf(c.ref), c.strs, strings.Compare)
	}
	return matches(c.op, r.int64Of(c.ref), c.ints, cmp.Compare[int64])
}

// matches applies a comparison, IN or BETWEEN op to a row value and
// the predicate's literals of the same type.
func matches[T any](op predOp, v T, lits []T, compare func(a, b T) int) bool {
	switch op {
	case opIn:
		for _, l := range lits {
			if compare(v, l) == 0 {
				return true
			}
		}
		return false
	case opBetween:
		return compare(v, lits[0]) >= 0 && compare(v, lits[1]) <= 0
	}
	d := compare(v, lits[0])
	switch op {
	case opEq:
		return d == 0
	case opNe:
		return d != 0
	case opLt:
		return d < 0
	case opLe:
		return d <= 0
	case opGt:
		return d > 0
	default:
		return d >= 0
	}
}
