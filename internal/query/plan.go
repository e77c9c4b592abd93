package query

import (
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

// whereSplit is the WHERE clause classified once at compile time. The
// third class, the exact time range, lives in pushdown.trange.
type whereSplit struct {
	// series joins the conjuncts that read no TS or Value: they are
	// constant per (segment, series) row and evaluated once for it.
	series sqlparse.Expr
	// point joins the conjuncts only a reconstructed data point can
	// decide: anything reading Value, TS IN / !=, an OR mixing classes.
	point sqlparse.Expr
}

// predClass is the class of one top-level WHERE conjunct.
type predClass int

const (
	classSeries predClass = iota
	classTime
	classPoint
)

// analyzeWhere is the one WHERE splitter: every top-level conjunct
// contributes its push-down and lands in exactly one class. Both views
// and both executors (aggregate and row scan) consume this split.
func (e *Engine) analyzeWhere(expr sqlparse.Expr, table sqlparse.Table) (pushdown, whereSplit, error) {
	push := pushdown{trange: allTime(), prune: allTime()}
	if expr == nil {
		return push, whereSplit{}, nil
	}
	var series, point []sqlparse.Expr
	for _, c := range collectConjuncts(expr) {
		h, err := e.analyzeExpr(c)
		if err != nil {
			return pushdown{}, whereSplit{}, err
		}
		class, err := e.classify(c, table)
		if err != nil {
			return pushdown{}, whereSplit{}, err
		}
		push.gids = push.gids.intersect(h.gids)
		push.prune = push.prune.intersect(h.trange)
		switch class {
		case classTime:
			push.trange = push.trange.intersect(h.trange)
		case classSeries:
			series = append(series, c)
		case classPoint:
			if table == sqlparse.TableSegment {
				return pushdown{}, whereSplit{}, fmt.Errorf("query: TS predicates on the Segment view must be simple AND conditions (=, <, <=, >, >=, BETWEEN)")
			}
			point = append(point, c)
		}
	}
	return push, whereSplit{series: joinConjuncts(series), point: joinConjuncts(point)}, nil
}

// classify assigns one top-level conjunct its class and rejects
// columns the queried view does not have. A conjunct reading neither
// TS nor Value is classSeries; a lone TS comparison the range
// expresses exactly is classTime; every other use of TS or Value needs
// the point.
func (e *Engine) classify(c sqlparse.Expr, table sqlparse.Table) (predClass, error) {
	var readsTS, readsValue bool
	err := e.walkColumns(c, func(ref columnRef) error {
		if ref.kind == colTS {
			// Also on the Segment view, which accepts TS as a clamp;
			// analyzeWhere rejects the uses that are not one.
			readsTS = true
			return nil
		}
		readsValue = readsValue || ref.kind == colValue
		return e.checkColumnTable(ref, table)
	})
	if err != nil || !(readsTS || readsValue) {
		return classSeries, err
	}
	// A comparison or BETWEEN reads one column, so one that does not
	// read Value here reads TS.
	switch x := c.(type) {
	case *sqlparse.BinaryExpr:
		_, isIdent := x.L.(*sqlparse.Ident)
		_, isLit := x.R.(*sqlparse.Literal)
		if isIdent && isLit && x.Op != "!=" && !readsValue {
			return classTime, nil
		}
	case *sqlparse.BetweenExpr:
		if !readsValue {
			return classTime, nil
		}
	}
	return classPoint, nil
}

// walkColumns resolves every column a predicate reads.
func (e *Engine) walkColumns(expr sqlparse.Expr, visit func(columnRef) error) error {
	var name string
	switch x := expr.(type) {
	case *sqlparse.BinaryExpr:
		if err := e.walkColumns(x.L, visit); err != nil {
			return err
		}
		return e.walkColumns(x.R, visit)
	case *sqlparse.Ident:
		name = x.Name
	case *sqlparse.InExpr:
		name = x.Column
	case *sqlparse.BetweenExpr:
		name = x.Column
	default:
		return nil
	}
	ref, err := resolveColumn(e.schema, name)
	if err != nil {
		return err
	}
	return visit(ref)
}

func collectConjuncts(expr sqlparse.Expr) []sqlparse.Expr {
	if be, ok := expr.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		return append(collectConjuncts(be.L), collectConjuncts(be.R)...)
	}
	return []sqlparse.Expr{expr}
}

func joinConjuncts(exprs []sqlparse.Expr) sqlparse.Expr {
	if len(exprs) == 0 {
		return nil
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &sqlparse.BinaryExpr{Op: "AND", L: out, R: e}
	}
	return out
}

// hint is the conservative push-down of one (sub)expression: the
// groups and the time range outside which it cannot hold.
type hint struct {
	gids   gidSet
	trange timeRange
}

func noHint() hint { return hint{trange: allTime()} }

// analyzeExpr extracts the push-down hint of an expression. For a
// simple TS comparison the range is exact, which is what lets
// analyzeWhere consume classTime conjuncts.
func (e *Engine) analyzeExpr(expr sqlparse.Expr) (hint, error) {
	switch x := expr.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, err := e.analyzeExpr(x.L)
			if err != nil {
				return hint{}, err
			}
			r, err := e.analyzeExpr(x.R)
			if err != nil {
				return hint{}, err
			}
			if x.Op == "AND" {
				return hint{gids: l.gids.intersect(r.gids), trange: l.trange.intersect(r.trange)}, nil
			}
			return hint{gids: l.gids.union(r.gids), trange: l.trange.union(r.trange)}, nil
		default:
			return e.analyzeComparison(x)
		}
	case *sqlparse.InExpr:
		ref, err := resolveColumn(e.schema, x.Column)
		if err != nil {
			return hint{}, err
		}
		switch ref.kind {
		case colTid:
			tids := make([]core.Tid, 0, len(x.Values))
			for _, v := range x.Values {
				if !v.IsNumber {
					return hint{}, fmt.Errorf("query: Tid IN requires numbers")
				}
				tids = append(tids, core.Tid(v.Number))
			}
			gids, err := e.meta.GidsForTids(tids)
			if err != nil {
				return hint{}, err
			}
			return hint{gids: gidSet(gids), trange: allTime()}, nil
		case colMember:
			// Dimension-predicate pruning: a member IN list rewrites to
			// the union of the per-member Gid sets (§6.2 generalized from
			// equality), so the scan skips groups without any listed
			// member instead of filtering them row by row.
			gids := gidSet{}
			for _, v := range x.Values {
				if v.IsNumber {
					return hint{}, fmt.Errorf("query: %s IN requires strings", ref.name)
				}
				gids = gids.union(gidSet(e.meta.GidsForMember(ref.dimension, ref.level, v.Str)))
			}
			return hint{gids: gids, trange: allTime()}, nil
		default:
			return noHint(), nil
		}
	case *sqlparse.BetweenExpr:
		ref, err := resolveColumn(e.schema, x.Column)
		if err != nil {
			return hint{}, err
		}
		if ref.kind != colTS {
			return noHint(), nil
		}
		lo, err := literalTime(x.Lo)
		if err != nil {
			return hint{}, err
		}
		hi, err := literalTime(x.Hi)
		if err != nil {
			return hint{}, err
		}
		return hint{trange: timeRange{from: lo, to: hi}}, nil
	default:
		return noHint(), nil
	}
}

// analyzeComparison extracts the hint of a single comparison.
func (e *Engine) analyzeComparison(x *sqlparse.BinaryExpr) (hint, error) {
	ident, ok := x.L.(*sqlparse.Ident)
	if !ok {
		return noHint(), nil
	}
	lit, ok := x.R.(*sqlparse.Literal)
	if !ok {
		return noHint(), nil
	}
	ref, err := resolveColumn(e.schema, ident.Name)
	if err != nil {
		return hint{}, err
	}
	switch ref.kind {
	case colTid:
		if x.Op != "=" || !lit.IsNumber {
			return noHint(), nil
		}
		gids, err := e.meta.GidsForTids([]core.Tid{core.Tid(lit.Number)})
		if err != nil {
			return hint{}, err
		}
		return hint{gids: gidSet(gids), trange: allTime()}, nil
	case colMember:
		// §6.2: rewrite dimension members in the WHERE clause to the
		// Gids of groups containing series with that member.
		if x.Op != "=" || lit.IsNumber {
			return noHint(), nil
		}
		gids := e.meta.GidsForMember(ref.dimension, ref.level, lit.Str)
		return hint{gids: gidSet(gids), trange: allTime()}, nil
	case colTS, colStartTime, colEndTime:
		ts, err := literalTime(*lit)
		if err != nil {
			return hint{}, err
		}
		// A TS bound is exact: timestamps are integral milliseconds, so a
		// strict bound is the neighbouring inclusive one. StartTime <= X
		// and EndTime <= X only imply that the interval starts by X
		// (StartTime <= EndTime), symmetrically for >=: a hint that
		// prunes while the series conjunct decides, so strictness is moot.
		strict := int64(0)
		if ref.kind == colTS {
			strict = 1
		}
		r := allTime()
		switch x.Op {
		case "=":
			if ref.kind == colTS {
				r = timeRange{from: ts, to: ts}
			}
		case "<":
			r.to = ts - strict
		case "<=":
			r.to = ts
		case ">":
			r.from = ts + strict
		case ">=":
			r.from = ts
		}
		return hint{trange: r}, nil
	default:
		return noHint(), nil
	}
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

// evalPred evaluates one class of the WHERE split against a row: the
// series conjuncts against a (segment, series) row, the point
// conjuncts against a reconstructed point. classify has already
// rejected columns the view lacks, so a column the row cannot provide
// is a planner bug, reported rather than read as satisfied.
func (e *Engine) evalPred(expr sqlparse.Expr, row *logicalRow) (bool, error) {
	if expr == nil {
		return true, nil
	}
	switch x := expr.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND":
			l, err := e.evalPred(x.L, row)
			if err != nil || !l {
				return false, err
			}
			return e.evalPred(x.R, row)
		case "OR":
			l, err := e.evalPred(x.L, row)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return e.evalPred(x.R, row)
		default:
			return e.evalComparison(x, row)
		}
	case *sqlparse.InExpr:
		ref, err := resolveColumn(e.schema, x.Column)
		if err != nil {
			return false, err
		}
		v, ok := row.valueOf(ref)
		if !ok {
			return false, errNoColumn(ref)
		}
		for _, lit := range x.Values {
			match, err := compareValues(v, lit, "=")
			if err != nil {
				return false, err
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *sqlparse.BetweenExpr:
		ref, err := resolveColumn(e.schema, x.Column)
		if err != nil {
			return false, err
		}
		v, ok := row.valueOf(ref)
		if !ok {
			return false, errNoColumn(ref)
		}
		ge, err := compareValues(v, x.Lo, ">=")
		if err != nil || !ge {
			return false, err
		}
		return compareValues(v, x.Hi, "<=")
	default:
		return false, fmt.Errorf("query: unsupported predicate %T", expr)
	}
}

func (e *Engine) evalComparison(x *sqlparse.BinaryExpr, row *logicalRow) (bool, error) {
	ident, ok := x.L.(*sqlparse.Ident)
	if !ok {
		return false, fmt.Errorf("query: comparison must have a column on the left")
	}
	lit, ok := x.R.(*sqlparse.Literal)
	if !ok {
		return false, fmt.Errorf("query: comparison must have a literal on the right")
	}
	ref, err := resolveColumn(e.schema, ident.Name)
	if err != nil {
		return false, err
	}
	v, ok := row.valueOf(ref)
	if !ok {
		return false, errNoColumn(ref)
	}
	return compareValues(v, *lit, x.Op)
}

func errNoColumn(ref columnRef) error {
	return fmt.Errorf("query: column %s is not available on this row", ref.name)
}

// compareValues applies op between a row value and a literal.
// Timestamp columns surface as int64 and compare against both numeric
// and string literals.
func compareValues(v any, lit sqlparse.Literal, op string) (bool, error) {
	switch val := v.(type) {
	case string:
		if lit.IsNumber {
			return false, fmt.Errorf("query: cannot compare member %q with a number", val)
		}
		return applyOrd(strings.Compare(val, lit.Str), op), nil
	case int64:
		var want int64
		if lit.IsNumber {
			want = int64(lit.Number)
		} else {
			ts, err := literalTime(lit)
			if err != nil {
				return false, err
			}
			want = ts
		}
		return applyOrd(cmpInt64(val, want), op), nil
	case float64:
		if !lit.IsNumber {
			return false, fmt.Errorf("query: cannot compare value with string %q", lit.Str)
		}
		return applyOrd(cmpFloat(val, lit.Number), op), nil
	default:
		return false, fmt.Errorf("query: unsupported comparison value %T", v)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func applyOrd(cmp int, op string) bool {
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	default:
		return false
	}
}
