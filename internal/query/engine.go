package query

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/obs"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

// Engine executes SQL queries against a segment store using the
// metadata cache for query rewriting (§6.2) and the model registry for
// reconstruction and segment-level aggregation.
type Engine struct {
	store  storage.SegmentStore
	meta   *core.MetadataCache
	reg    *models.Registry
	schema *dims.Schema
	// par is the scan worker count; 0 selects GOMAXPROCS, 1 runs one
	// worker in the caller's goroutine. Set before serving queries.
	par int
	// chunk pins a fixed scan chunk size when positive (tests only);
	// otherwise the store sizes chunks adaptively by byte budget.
	chunk int
	// forcePerPoint makes every DataPoint-view aggregate reconstruct its
	// points (tests only): the oracle the model fold is checked against.
	forcePerPoint bool
	// scanHook, when set, is invoked once per scanned segment with the
	// query's context (SetScanHook).
	scanHook func(ctx context.Context) error
	// obsv, when set, receives a per-query trace (stage spans, work
	// counters) for every execution; qid numbers the traces.
	obsv *obs.QueryObserver
	qid  atomic.Uint64
}

// NewEngine returns an engine over the given store and metadata.
func NewEngine(store storage.SegmentStore, meta *core.MetadataCache, reg *models.Registry, schema *dims.Schema) *Engine {
	return &Engine{store: store, meta: meta, reg: reg, schema: schema}
}

// Result is a finished query result.
type Result struct {
	Columns []string
	Rows    [][]any
}

// GroupState is the mergeable per-group aggregate state exchanged
// between workers and the master (§6.2: iterate on workers, merge and
// finalize on the master).
type GroupState struct {
	Key     []any
	Scalars []ScalarState
	Cubes   []CubeState
}

// merge folds o into g.
func (g *GroupState) merge(o *GroupState) {
	for i := range o.Scalars {
		g.Scalars[i].Merge(o.Scalars[i])
	}
	for i := range o.Cubes {
		g.Cubes[i].Merge(o.Cubes[i])
	}
}

// PartialResult is one node's contribution to a query. Non-aggregate
// rows travel as a typed columnar batch; aggregates travel as
// mergeable per-group states. On the wire a PartialResult uses the
// typed-vector chunk format (wire.go).
type PartialResult struct {
	Columns     []string
	IsAggregate bool
	Groups      map[string]*GroupState
	Batch       *ColumnBatch
}

// NumRows returns the number of materialized rows in the partial.
func (p *PartialResult) NumRows() int {
	if p.Batch == nil {
		return 0
	}
	return p.Batch.Len()
}

// ReleaseBatch hands the partial's batch back to the package pool once
// the caller has merged or encoded it. Safe on nil batches.
func (p *PartialResult) ReleaseBatch() {
	if p == nil || p.Batch == nil {
		return
	}
	p.Batch.release()
	p.Batch = nil
}

// Execute parses, plans, runs and finalizes a query on this node.
// Cancelling ctx aborts the scan between chunks and returns ctx.Err().
func (e *Engine) Execute(ctx context.Context, sql string) (*Result, error) {
	tr := e.beginTrace(obs.RawSQL(sql))
	sp := tr.StartSpan(obs.SpanParse)
	q, err := sqlparse.Parse(sql)
	sp.End()
	if err != nil {
		e.finishTrace(tr, err)
		return nil, err
	}
	res, err := e.executeTraced(ctx, q, tr)
	e.finishTrace(tr, err)
	return res, err
}

// ExecuteQuery runs a parsed query on this node.
func (e *Engine) ExecuteQuery(ctx context.Context, q *sqlparse.Query) (*Result, error) {
	tr := e.beginTrace(q)
	res, err := e.executeTraced(ctx, q, tr)
	e.finishTrace(tr, err)
	return res, err
}

// executeTraced is ExecuteQuery's body with the trace threaded through
// the plan, so per-segment and per-chunk work lands on it.
func (e *Engine) executeTraced(ctx context.Context, q *sqlparse.Query, tr *obs.Trace) (*Result, error) {
	sp := tr.StartSpan(obs.SpanPlan)
	p, err := e.compile(q)
	sp.End()
	if err != nil {
		return nil, err
	}
	p.trace = tr
	var res *Result
	err = e.run(ctx, p, func(f *finalized) { res = e.box(p, f) })
	return res, err
}

// run executes a compiled plan on this node and finalizes its result:
// the scan under the trace's scan span, then finalize and use, which
// takes the finalized result, under its finalize span.
func (e *Engine) run(ctx context.Context, p *plan, use func(*finalized)) error {
	sp := p.trace.StartSpan(obs.SpanScan)
	parts, err := e.runPlan(ctx, p)
	sp.End()
	if err != nil {
		return err
	}
	sp = p.trace.StartSpan(obs.SpanFinalize)
	defer sp.End()
	f, err := e.finalize(p, parts)
	if err != nil {
		releaseParts(parts)
		return err
	}
	f.parts = parts
	p.trace.Add(obs.Rows, int64(len(f.order)))
	use(f)
	return nil
}

// Validate compiles a parsed query without executing it, reporting the
// same errors execution would: compiling types every WHERE literal by
// its column, so no error waits for a row to reach it.
func (e *Engine) Validate(q *sqlparse.Query) error {
	_, err := e.compile(q)
	return err
}

// PartialChecker compiles q, reporting the errors Validate would, and
// returns a check that a partial result fits q's result: group keys of
// the GROUP BY's length and column types, as many aggregate states as
// q has, and row batches of q's column types. A peer's chunk decodes
// to whatever shape its bytes spell, so a cluster master compiles once,
// before it scatters, and checks every chunk before it keeps or folds
// it.
func (e *Engine) PartialChecker(q *sqlparse.Query) (func(*PartialResult) error, error) {
	p, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	return p.checkPartial, nil
}

// SetScanHook installs h, invoked once per segment the executor
// processes, with the query's context. It observes scan progress
// (tests assert that a cancelled query's scan actually stops) and
// injects faults or latency (h may block on ctx or return an error,
// which aborts the scan). h runs concurrently from pool workers and
// must be safe for concurrent use; configure before serving queries,
// like SetParallelism. A nil h removes the hook.
func (e *Engine) SetScanHook(h func(ctx context.Context) error) {
	e.scanHook = h
}

// SetObserver installs (or, with nil, removes) the query observer:
// every execution then carries an obs.Trace — stage spans, segments
// scanned, chunks processed, rows produced — which feeds the
// observer's metrics, slow-query log and OnTrace callback when the
// query finishes. Configure before serving queries, like
// SetParallelism; the per-query cost is one small allocation and a few
// clock reads.
func (e *Engine) SetObserver(o *obs.QueryObserver) {
	e.obsv = o
}

// beginTrace starts a trace for one execution when an observer is
// installed; without one it returns nil and the whole trace surface
// collapses to nil-checks.
func (e *Engine) beginTrace(sql fmt.Stringer) *obs.Trace {
	if e.obsv == nil {
		return nil
	}
	return obs.NewTrace(e.qid.Add(1), sql)
}

// finishTrace completes a trace and hands it to the observer.
func (e *Engine) finishTrace(tr *obs.Trace, err error) {
	if tr == nil {
		return
	}
	tr.Finish()
	e.obsv.Observe(tr, err)
}

// queueWaitHistogram resolves the pool queue-wait histogram, nil when
// unobserved — scan's pool only timestamps jobs when it is set.
func (e *Engine) queueWaitHistogram() *obs.Histogram {
	if e.obsv == nil || e.obsv.Metrics == nil {
		return nil
	}
	return e.obsv.Metrics.QueueWait
}

// hookSegment runs per-segment bookkeeping: the scratch's segment
// tally and the scan hook, if any.
func (e *Engine) hookSegment(ctx context.Context, sc *scanScratch) error {
	sc.counts[obs.Segments]++
	if e.scanHook == nil {
		return nil
	}
	return e.scanHook(ctx)
}

// runPlan executes a compiled plan's worker-side part: an aggregate's
// one partial, or a row scan's partials, one per chunk.
func (e *Engine) runPlan(ctx context.Context, p *plan) ([]*PartialResult, error) {
	if p.isAggregate {
		part, err := e.runAggregate(ctx, p)
		if err != nil {
			return nil, err
		}
		return []*PartialResult{part}, nil
	}
	return e.runSelect(ctx, p)
}

// plan is a compiled query.
type plan struct {
	q           *sqlparse.Query
	push        pushdown
	where       whereSplit
	isAggregate bool
	cubeLevel   sqlparse.TimeLevel
	groupRefs   []columnRef
	items       []planItem
	nScalars    int
	nCubes      int
	outColumns  []string
	// perPoint is the fold decision of an aggregate plan, taken once
	// here so every worker agrees: a DataPoint-view aggregate walks
	// reconstructed points only when a point conjunct or a TS/Value
	// group key needs them; otherwise it folds each (segment, series) on
	// the model like the Segment view.
	perPoint bool
	// needView records that an aggregate plan decodes each segment's
	// model view: it walks points, or an aggregate other than COUNT
	// needs values (COUNT-only queries run on metadata alone).
	needView bool
	// perSeries records that the series conjuncts and the group key read
	// only columns constant per series (Tid, Gid, SI, members), so the
	// executor resolves both once per Tid instead of once per (segment,
	// series) — see keepSeries and groupOf.
	perSeries bool
	// colTypes is the typed column layout of the result: of projected
	// rows, and of the batch an aggregate's groups finalize into.
	colTypes []ColType
	// orderBy is the compiled ORDER BY, resolved against outColumns.
	orderBy []sortKey
	// trace is this execution's observability record (nil untraced). It
	// rides the plan rather than the context so the per-segment hot
	// path pays a field load, not a ctx.Value walk.
	trace *obs.Trace
}

type planItem struct {
	sel       sqlparse.SelectItem
	ref       columnRef // resolved plain column or aggregate argument
	groupIdx  int       // index into groupRefs for plain columns
	scalarIdx int       // index into GroupState.Scalars, or -1
	cubeIdx   int       // index into GroupState.Cubes, or -1
}

func (e *Engine) compile(q *sqlparse.Query) (*plan, error) {
	p := &plan{q: q, cubeLevel: sqlparse.LevelNone}
	for _, item := range q.Select {
		if item.Agg != sqlparse.AggNone {
			p.isAggregate = true
		}
	}
	// Resolve GROUP BY columns.
	for _, col := range q.GroupBy {
		ref, err := resolveColumn(e.schema, col)
		if err != nil {
			return nil, err
		}
		if err := e.checkColumnTable(ref, q.From); err != nil {
			return nil, err
		}
		p.groupRefs = append(p.groupRefs, ref)
	}
	if len(q.GroupBy) > 0 && !p.isAggregate {
		return nil, fmt.Errorf("query: GROUP BY requires aggregate functions")
	}
	// Expand and validate select items.
	var items []sqlparse.SelectItem
	for _, item := range q.Select {
		if item.Agg == sqlparse.AggNone && item.Column == "*" {
			if p.isAggregate {
				return nil, fmt.Errorf("query: SELECT * cannot be mixed with aggregates")
			}
			items = append(items, e.expandStar(q.From)...)
			continue
		}
		items = append(items, item)
	}
	for _, item := range items {
		pi := planItem{sel: item, groupIdx: -1, scalarIdx: -1, cubeIdx: -1}
		if item.Agg == sqlparse.AggNone {
			ref, err := resolveColumn(e.schema, item.Column)
			if err != nil {
				return nil, err
			}
			if err := e.checkColumnTable(ref, q.From); err != nil {
				return nil, err
			}
			pi.ref = ref
			if p.isAggregate {
				for gi, gref := range p.groupRefs {
					if gref == ref {
						pi.groupIdx = gi
						break
					}
				}
				if pi.groupIdx < 0 {
					return nil, fmt.Errorf("query: column %s must appear in GROUP BY", ref.name)
				}
			}
		} else {
			if err := e.checkAggregate(item, q.From); err != nil {
				return nil, err
			}
			if item.CubeLevel != sqlparse.LevelNone {
				if p.cubeLevel != sqlparse.LevelNone && p.cubeLevel != item.CubeLevel {
					return nil, fmt.Errorf("query: mixed roll-up levels in one query")
				}
				p.cubeLevel = item.CubeLevel
				pi.cubeIdx = p.nCubes
				p.nCubes++
			} else {
				pi.scalarIdx = p.nScalars
				p.nScalars++
			}
		}
		p.items = append(p.items, pi)
	}
	if p.nCubes > 0 && p.nScalars > 0 {
		return nil, fmt.Errorf("query: CUBE_* roll-ups cannot be mixed with simple aggregates")
	}
	if len(p.items) == 0 {
		return nil, fmt.Errorf("query: empty select list")
	}
	var err error
	if p.push, p.where, err = e.analyzeWhere(q.Where, q.From); err != nil {
		return nil, err
	}
	p.perPoint = q.From == sqlparse.TableDataPoint && (len(p.where.point.kids) > 0 || p.pointGroupKey() || e.forcePerPoint)
	p.needView = p.perPoint || slices.ContainsFunc(p.items, func(pi planItem) bool {
		return pi.sel.Agg != sqlparse.AggNone && pi.sel.Agg != sqlparse.AggCount
	})
	p.perSeries = p.where.series.every(columnKind.perSeries)
	for _, ref := range p.groupRefs {
		p.perSeries = p.perSeries && ref.kind.perSeries()
	}
	// The output columns: labels and types. The bucket column precedes
	// the first cube aggregate (Fig. 12 keys results by the roll-up
	// bucket), and every aggregate is a float64.
	for _, pi := range p.items {
		if pi.cubeIdx == 0 {
			p.outColumns = append(p.outColumns, p.cubeLevel.String())
			p.colTypes = append(p.colTypes, ColInt64)
		}
		if pi.sel.Agg == sqlparse.AggNone {
			p.outColumns = append(p.outColumns, pi.ref.name)
			p.colTypes = append(p.colTypes, colTypeOf(pi.ref))
		} else {
			p.outColumns = append(p.outColumns, pi.sel.Label())
			p.colTypes = append(p.colTypes, ColFloat64)
		}
	}
	for _, o := range q.OrderBy {
		col := slices.IndexFunc(p.outColumns, func(name string) bool { return strings.EqualFold(name, o.Column) })
		if col < 0 {
			return nil, fmt.Errorf("query: ORDER BY column %q not in result", o.Column)
		}
		p.orderBy = append(p.orderBy, sortKey{col: col, typ: p.colTypes[col], desc: o.Desc})
	}
	return p, nil
}

// expandStar returns the view's column list (Fig. 6 schemas).
func (e *Engine) expandStar(table sqlparse.Table) []sqlparse.SelectItem {
	var cols []string
	if table == sqlparse.TableSegment {
		cols = []string{"Tid", "StartTime", "EndTime", "SI", "Mid", "Gaps"}
	} else {
		cols = []string{"Tid", "TS", "Value"}
	}
	for _, d := range e.schema.Dimensions() {
		cols = append(cols, d.Levels...)
	}
	items := make([]sqlparse.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqlparse.SelectItem{Column: c}
	}
	return items
}

func (e *Engine) checkColumnTable(ref columnRef, table sqlparse.Table) error {
	switch ref.kind {
	case colTS, colValue:
		if table == sqlparse.TableSegment {
			return fmt.Errorf("query: column %s is only available on the DataPoint view", ref.name)
		}
	case colStartTime, colEndTime, colMid, colGaps:
		if table == sqlparse.TableDataPoint {
			return fmt.Errorf("query: column %s is only available on the Segment view", ref.name)
		}
	}
	return nil
}

func (e *Engine) checkAggregate(item sqlparse.SelectItem, table sqlparse.Table) error {
	if item.OnSegment && table != sqlparse.TableSegment {
		return fmt.Errorf("query: %s runs on the Segment view", item.Label())
	}
	if !item.OnSegment && table != sqlparse.TableDataPoint {
		return fmt.Errorf("query: %s runs on the DataPoint view; use %s_S on segments", item.Label(), item.Agg)
	}
	if item.Column != "*" && !strings.EqualFold(item.Column, "Value") {
		return fmt.Errorf("query: aggregates apply to * or Value, not %s", item.Column)
	}
	return nil
}

// logicalRow is one per-series row of either view during evaluation.
type logicalRow struct {
	ts      *core.TimeSeries
	seg     *core.Segment
	pointTS int64
	value   float64
	isPoint bool
}

// int64Of reads an int64 column of the row, stringOf a string one;
// compile's checkColumnTable guarantees the column is on the row.
func (r *logicalRow) int64Of(ref columnRef) int64 {
	switch ref.kind {
	case colTid:
		return int64(r.ts.Tid)
	case colGid:
		return int64(r.ts.Gid)
	case colSI:
		return r.ts.SI
	case colStartTime:
		return r.seg.StartTime
	case colEndTime:
		return r.seg.EndTime
	case colMid:
		return int64(r.seg.MID)
	default:
		return r.pointTS
	}
}

func (r *logicalRow) stringOf(ref columnRef) string {
	if ref.kind == colGaps {
		return fmt.Sprint(r.seg.GapTids)
	}
	return r.ts.Member(ref.dimension, ref.level)
}

// valueOf boxes one column of the row for a new group's Key.
func (r *logicalRow) valueOf(ref columnRef) any {
	switch colTypeOf(ref) {
	case ColFloat64:
		return r.value
	case ColString:
		return r.stringOf(ref)
	}
	return r.int64Of(ref)
}

// appendGroupKey renders the GROUP BY key of a row into dst and
// returns the extended slice: int64 in base 10, float64 in shortest
// %g (appendFloat), strings raw, each NUL-terminated — the %v
// rendering the sorted group order in finalizePlan has always used.
func (p *plan) appendGroupKey(dst []byte, r *logicalRow) []byte {
	for _, ref := range p.groupRefs {
		switch colTypeOf(ref) {
		case ColFloat64:
			dst = appendFloat(dst, r.value)
		case ColString:
			dst = append(dst, r.stringOf(ref)...)
		default:
			dst = strconv.AppendInt(dst, r.int64Of(ref), 10)
		}
		dst = append(dst, 0)
	}
	return dst
}

// groupVals boxes the GROUP BY column values for a new group's Key.
func (p *plan) groupVals(r *logicalRow) []any {
	if len(p.groupRefs) == 0 {
		return nil
	}
	vals := make([]any, len(p.groupRefs))
	for i, ref := range p.groupRefs {
		vals[i] = r.valueOf(ref)
	}
	return vals
}

// pointGroupKey reports whether the GROUP BY key varies per data point
// (references TS or Value), forcing a per-point group lookup.
func (p *plan) pointGroupKey() bool {
	for _, ref := range p.groupRefs {
		if ref.kind == colTS || ref.kind == colValue {
			return true
		}
	}
	return false
}

// scanFilter converts a push-down to a store filter.
func (p *plan) scanFilter() storage.Filter {
	return storage.Filter{Gids: p.push.gids, From: p.push.prune.from, To: p.push.prune.to}
}

// runAggregate executes an aggregate query (Algorithms 5 and 6): each
// chunk aggregates into its own GroupState map, and the chunk partials
// merge in scan order exactly like cluster partials merge in Finalize.
func (e *Engine) runAggregate(ctx context.Context, p *plan) (*PartialResult, error) {
	out := &PartialResult{Columns: p.outColumns, IsAggregate: true}
	err := e.scan(ctx, p, (*Engine).aggregateChunk, func(part any) error {
		if out.Groups == nil {
			// The first chunk's map becomes the result: merging it into
			// an empty map would adopt every one of its states anyway.
			out.Groups = part.(map[string]*GroupState)
			return nil
		}
		mergeGroups(out.Groups, part.(map[string]*GroupState))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out.Groups == nil {
		out.Groups = map[string]*GroupState{}
	}
	return out, nil
}

// aggregateChunk is one chunk's iterate step (the worker side's
// per-segment aggregation): a fresh per-group partial state map.
func (e *Engine) aggregateChunk(ctx context.Context, p *plan, sc *scanScratch, segs []*core.Segment) (any, error) {
	groups := map[string]*GroupState{}
	sc.chunk++ // groups cached by groupOf belong to the previous chunk's map
	for _, seg := range segs {
		if err := e.hookSegment(ctx, sc); err != nil {
			return nil, err
		}
		if err := e.aggregateSegment(p, seg, groups, sc); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// aggregateSegment folds, or for a perPoint plan walks, every series of
// seg that the series conjuncts keep. A fold whose ranges are all the
// segment's whole range — no TS clip, and a roll-up split of one run —
// reads the segment's memo slot once a query has filled it (foldsFor).
func (e *Engine) aggregateSegment(p *plan, seg *core.Segment, groups map[string]*GroupState, sc *scanScratch) error {
	i0, i1, ok := seg.IndexRange(p.push.trange.from, p.push.trange.to)
	if !ok {
		return nil
	}
	active := sc.seriesOf(e.meta, seg)
	var view models.AggView
	var folds rangeFolder
	runs := sc.runs[:0]
	row := logicalRow{seg: seg, isPoint: p.q.From == sqlparse.TableDataPoint}
	for pos, ts := range active {
		row.ts = ts
		if !sc.keepSeries(p, &row) {
			continue
		}
		if p.perPoint {
			if view == nil {
				v, err := e.viewFor(sc, seg, len(active))
				if err != nil {
					return segmentError(seg, err)
				}
				view = v
			}
			sc.counts[obs.DecodedPoints] += int64(i1 - i0 + 1)
			p.aggregatePoints(view, pos, &row, i0, i1, groups, sc)
			continue
		}
		if p.nCubes > 0 && len(runs) == 0 {
			runs = appendBucketRuns(runs, p.cubeLevel, seg, i0, i1)
			sc.runs = runs
		}
		if folds == nil && p.needView {
			whole := len(runs) <= 1 && seg.Within(p.push.trange.from, p.push.trange.to)
			f, err := e.foldsFor(sc, seg, len(active), whole)
			if err != nil {
				return segmentError(seg, err)
			}
			folds = f
		}
		sc.counts[obs.FoldedSeries]++
		p.aggregateSeries(sc.groupOf(p, groups, &row), folds, pos, float64(ts.Scaling), i0, i1, runs)
	}
	return nil
}

// segmentError names the segment whose view failed to decode.
func segmentError(seg *core.Segment, err error) error {
	return fmt.Errorf("query: segment (gid=%d, end=%d): %w", seg.Gid, seg.EndTime, err)
}

// groupFor returns the group for a rendered key, creating it on first
// sight. The map index on string(key) does not allocate (the compiler
// elides the conversion for lookups); the key string and boxed Key
// values are materialized only for new groups.
func (p *plan) groupFor(groups map[string]*GroupState, key []byte, r *logicalRow) *GroupState {
	g, ok := groups[string(key)]
	if !ok {
		g = &GroupState{Key: p.groupVals(r), Scalars: make([]ScalarState, p.nScalars), Cubes: make([]CubeState, p.nCubes)}
		for i := range g.Scalars {
			g.Scalars[i] = NewScalarState()
		}
		groups[string(key)] = g
	}
	return g
}

// rangeFolder is what a fold reads of a segment: its model view's range
// aggregates, or the whole-range ones its memo slot keeps (memoFolds).
type rangeFolder interface {
	SumRange(series, i0, i1 int) float64
	MinRange(series, i0, i1 int) float64
	MaxRange(series, i0, i1 int) float64
}

// memoFolds serves a segment's whole-range folds from its memo slot,
// laid out as core.Memo.Load returns them. It ignores the range it is
// asked for, so it is read only for the segment's whole range.
type memoFolds struct {
	folds []float64
	n     int
}

func (m *memoFolds) SumRange(series, _, _ int) float64 { return m.folds[series] }
func (m *memoFolds) MinRange(series, _, _ int) float64 { return m.folds[m.n+series] }
func (m *memoFolds) MaxRange(series, _, _ int) float64 { return m.folds[2*m.n+series] }

// rangeAgg is a series' model-native aggregate over [i0, i1], unscaled.
// MIN and MAX are rounded through float32 before the division because
// that is what a reconstructed point is (ValueAt returns float32);
// rounding is monotone, so the rounded extremum of the model is the
// extremum of the rounded points, bit for bit. SUM stays the model's
// float64 closed form.
func rangeAgg(view rangeFolder, pos, i0, i1 int, scale float64) (sum, mn, mx float64) {
	sum = view.SumRange(pos, i0, i1) / scale
	mn = float64(float32(view.MinRange(pos, i0, i1))) / scale
	mx = float64(float32(view.MaxRange(pos, i0, i1))) / scale
	return sum, mn, mx
}

// aggregateSeries is the fold both views share: one AddRange per
// (segment, series) using the model's constant-time aggregates where
// the model supports them (Algorithm 5's iterate), and for a roll-up
// one per bucket of the segment's split runs (Algorithm 6). The scalar
// items share one rangeAgg: SUM, MIN and MAX of one series over one
// range are the same three numbers whichever item asks.
func (p *plan) aggregateSeries(g *GroupState, view rangeFolder, pos int, scale float64, i0, i1 int, runs []bucketRun) {
	count := int64(i1 - i0 + 1)
	var sum, mn, mx float64
	folded := false
	for i := range p.items {
		pi := &p.items[i] // by pointer: a planItem is too large to copy per series
		switch {
		case pi.scalarIdx >= 0:
			if pi.sel.Agg == sqlparse.AggCount {
				g.Scalars[pi.scalarIdx].AddRange(count, 0, 0, 0)
				continue
			}
			if !folded {
				sum, mn, mx = rangeAgg(view, pos, i0, i1, scale)
				folded = true
			}
			g.Scalars[pi.scalarIdx].AddRange(count, sum, mn, mx)
		case pi.cubeIdx >= 0:
			cube := &g.Cubes[pi.cubeIdx]
			for _, r := range runs {
				n := int64(r.last - r.first + 1)
				if pi.sel.Agg == sqlparse.AggCount {
					cube.Add(r.bucket, n, 0, 0, 0)
					continue
				}
				sum, mn, mx := rangeAgg(view, pos, r.first, r.last, scale)
				cube.Add(r.bucket, n, sum, mn, mx)
			}
		}
	}
}

// aggregatePoints feeds reconstructed data points into scalar states:
// the path a DataPoint-view aggregate takes only when its plan is
// perPoint. A group exists only once a point matched, so the lookup
// stays behind the predicate; a key constant per series is looked up
// once.
func (p *plan) aggregatePoints(view models.AggView, pos int, row *logicalRow, i0, i1 int, groups map[string]*GroupState, sc *scanScratch) {
	scale := float64(row.ts.Scaling)
	keyPerPoint := p.pointGroupKey()
	var g *GroupState
	for i := i0; i <= i1; i++ {
		row.pointTS = row.seg.TimestampAt(i)
		row.value = float64(view.ValueAt(pos, i)) / scale
		if !p.where.point.eval(row) {
			continue
		}
		if g == nil || keyPerPoint {
			g = sc.groupOf(p, groups, row)
		}
		for _, pi := range p.items {
			if pi.scalarIdx >= 0 {
				g.Scalars[pi.scalarIdx].AddPoint(row.value)
			}
		}
	}
}

// runSelect executes a non-aggregate query, returning raw rows as one
// partial per chunk batch, in scan order. Finalize walks the list, so
// no row is copied into a batch of all of them; each batch goes back
// to the pool once the result is boxed or walked.
func (e *Engine) runSelect(ctx context.Context, p *plan) ([]*PartialResult, error) {
	var parts []*PartialResult
	err := e.scan(ctx, p, (*Engine).selectChunk, func(part any) error {
		b := part.(*ColumnBatch)
		if b.Len() == 0 {
			b.release()
			return nil
		}
		parts = append(parts, &PartialResult{Columns: p.outColumns, Batch: b})
		return nil
	})
	if err != nil {
		// Aborted scans may strand un-consumed chunk batches in the
		// collector's pending map; those fall to the GC, not the pool.
		releaseParts(parts)
		return nil, err
	}
	return parts, nil
}

// releaseParts hands every partial's batch back to the pool.
func releaseParts(parts []*PartialResult) {
	for _, part := range parts {
		part.ReleaseBatch()
	}
}

// selectChunk projects one chunk's rows into its own pooled batch,
// which the consumer owns (and releases) once it is returned.
func (e *Engine) selectChunk(ctx context.Context, p *plan, sc *scanScratch, segs []*core.Segment) (any, error) {
	b := getBatch(p.colTypes)
	for _, seg := range segs {
		if err := e.hookSegment(ctx, sc); err != nil {
			b.release()
			return nil, err
		}
		if err := e.selectSegment(p, seg, b, sc); err != nil {
			b.release()
			return nil, err
		}
	}
	return b, nil
}

// selectSegment appends one segment's projected rows to the batch, a
// run per (segment, series): the series conjuncts gate each series
// once, and on the DataPoint view the series' points over the clipped
// [i0, i1] are reconstructed into the scratch's TS and Value vectors,
// of which the point conjuncts — usually none — keep a selection. A
// Segment-view row is a run of one.
func (e *Engine) selectSegment(p *plan, seg *core.Segment, b *ColumnBatch, sc *scanScratch) error {
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
		n := 1
		if row.isPoint {
			if view == nil {
				v, err := e.viewFor(sc, seg, len(active))
				if err != nil {
					return err
				}
				view = v
			}
			if n = sc.pointRun(p, &row, view, pos, i0, i1); n == 0 {
				continue
			}
		}
		p.appendRun(b, &row, n, sc)
		sc.counts[obs.SelectRuns]++
	}
	return nil
}

// pointRun reconstructs row's series over [i0, i1] into the scratch's
// TS and Value vectors, with the arithmetic of a single point
// (TimestampAt, and float64(ValueAt) / scaling), then keeps in place
// the points the point conjuncts hold for and returns how many it
// kept.
func (sc *scanScratch) pointRun(p *plan, row *logicalRow, view models.AggView, pos, i0, i1 int) int {
	n := i1 - i0 + 1
	sc.counts[obs.DecodedPoints] += int64(n)
	scale := float64(row.ts.Scaling)
	ts := slices.Grow(sc.pointTS[:0], n)[:n]
	vals := slices.Grow(sc.values[:0], n)[:n]
	for k := range ts {
		ts[k] = row.seg.TimestampAt(i0 + k)
		vals[k] = float64(view.ValueAt(pos, i0+k)) / scale
	}
	if !p.where.point.always() {
		n = 0
		for k := range ts {
			row.pointTS, row.value = ts[k], vals[k]
			if p.where.point.eval(row) {
				ts[n], vals[n] = ts[k], vals[k]
				n++
			}
		}
	}
	sc.pointTS, sc.values = ts[:n], vals[:n]
	return n
}

// appendRun appends n rows of r's (segment, series) to the batch, a
// column at a time with no boxing: TS and Value copy the scratch's
// point vectors, which pointRun left n long, and every other column is
// constant over the run and filled once. Unavailable columns cannot
// occur here — compile's checkColumnTable rejects cross-view
// references, and the executor always has the segment at hand.
func (p *plan) appendRun(b *ColumnBatch, r *logicalRow, n int, sc *scanScratch) {
	for c, pi := range p.items {
		switch {
		case pi.ref.kind == colTS:
			b.appendInt64s(c, sc.pointTS)
		case pi.ref.kind == colValue:
			b.appendFloat64s(c, sc.values)
		case colTypeOf(pi.ref) == ColString:
			b.fillString(c, r.stringOf(pi.ref), n)
		default:
			b.fillInt64(c, r.int64Of(pi.ref), n)
		}
	}
	b.finishRows(n)
}

// Finalize merges partial results from all nodes and produces the
// final rows (Algorithm 5 lines 14-15).
func (e *Engine) Finalize(q *sqlparse.Query, partials []*PartialResult) (*Result, error) {
	p, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	return e.finalizePlan(p, partials)
}

// finalizePlan is Finalize over an already-compiled plan.
func (e *Engine) finalizePlan(p *plan, partials []*PartialResult) (*Result, error) {
	f, err := e.finalize(p, partials)
	if err != nil {
		return nil, err
	}
	return e.box(p, f), nil
}

// finalize checks the partials against the plan, merges them into
// typed batches — a row result's are the partials' own, an aggregate's
// merged groups finalize into one — and orders the rows the result
// keeps (see order.go).
func (e *Engine) finalize(p *plan, partials []*PartialResult) (*finalized, error) {
	for _, part := range partials {
		if err := p.checkPartial(part); err != nil {
			return nil, err
		}
	}
	var bs []*ColumnBatch
	if p.isAggregate {
		bs = append(bs, p.groupBatch(mergePartials(partials)))
	} else {
		for _, part := range partials {
			if part.Batch != nil {
				bs = append(bs, part.Batch)
			}
		}
	}
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	return orderRows(bs, p.orderBy, p.q.Limit, spanCount(e.workers(), n)), nil
}

// box boxes a finalized result into the public [][]any rows, on every
// core, and releases it: the boxed cells copy numerics and share
// immutable string backings, so nothing of f is needed afterwards.
func (e *Engine) box(p *plan, f *finalized) *Result {
	defer f.release()
	return &Result{Columns: p.outColumns, Rows: boxRefs(f.bs, f.order, spanCount(e.workers(), len(f.order)))}
}

// checkPartial reports whether a partial fits the plan's result. A
// peer's chunk decodes to whatever shape its bytes spell, and merging
// or finalizing one of another shape would read past its states or
// misread its columns.
func (p *plan) checkPartial(part *PartialResult) error {
	if b := part.Batch; b != nil && (p.isAggregate || !slices.Equal(b.Types(), p.colTypes)) {
		return fmt.Errorf("query: partial rows do not match the result's column types")
	}
	for _, g := range part.Groups {
		if len(g.Key) != len(p.groupRefs) || len(g.Scalars) != p.nScalars || len(g.Cubes) != p.nCubes {
			return fmt.Errorf("query: partial group state does not match the query's GROUP BY and aggregates")
		}
		for i, v := range g.Key {
			if t := colTypeOf(p.groupRefs[i]); cellType(v) != t {
				return fmt.Errorf("query: partial group key %v for %s column %s", v, t.goName(), p.groupRefs[i].name)
			}
		}
	}
	return nil
}

// mergePartials merges the partials' groups by key (§6.2's master-side
// merge). A lone partial is returned as is — finalizing only reads it —
// and otherwise a key's first state is copied before others merge into
// it, so the callers' partials are never written.
func mergePartials(partials []*PartialResult) map[string]*GroupState {
	if len(partials) == 1 {
		return partials[0].Groups
	}
	merged := map[string]*GroupState{}
	for _, part := range partials {
		for key, g := range part.Groups {
			if m, ok := merged[key]; ok {
				m.merge(g)
				continue
			}
			c := &GroupState{Key: g.Key, Scalars: slices.Clone(g.Scalars), Cubes: make([]CubeState, len(g.Cubes))}
			for i, cube := range g.Cubes {
				c.Cubes[i] = slices.Clone(cube)
			}
			merged[key] = c
		}
	}
	return merged
}

// groupBatch finalizes merged groups into one batch, in key order: one
// row per group for scalar aggregates, one row per time bucket for
// roll-ups. It counts the rows first, so every column is allocated
// once.
func (p *plan) groupBatch(groups map[string]*GroupState) *ColumnBatch {
	// Not a pooled batch: the pool's batches keep the vectors of a row
	// layout for the next scan, and an aggregate's layout would drop
	// them.
	b := NewColumnBatch(p.colTypes)
	next := make([]int, p.nCubes)
	keys := slices.AppendSeq(make([]string, 0, len(groups)), maps.Keys(groups))
	slices.Sort(keys)
	rows := len(keys)
	if p.nCubes > 0 {
		rows = 0
		for _, key := range keys {
			rows += eachBucket(groups[key], next, nil)
		}
	}
	b.grow(rows)
	for _, key := range keys {
		g := groups[key]
		if p.nCubes == 0 {
			p.appendGroupRow(b, g, 0, nil)
			continue
		}
		eachBucket(g, next, func(bucket int64) { p.appendGroupRow(b, g, bucket, next) })
	}
	return b
}

// eachBucket walks the buckets of g's roll-ups in order and returns
// how many there are. Cube states are sorted by bucket, so the buckets
// are the ordered union of the states, walked with one cursor per
// state in next; fn, unless nil, sees each bucket while the cursors
// sit at its cells.
func eachBucket(g *GroupState, next []int, fn func(bucket int64)) int {
	clear(next)
	n := 0
	for {
		bucket, ok := int64(0), false
		for ci, c := range g.Cubes {
			if i := next[ci]; i < len(c) && (!ok || c[i].Bucket < bucket) {
				bucket, ok = c[i].Bucket, true
			}
		}
		if !ok {
			return n
		}
		if fn != nil {
			fn(bucket)
		}
		n++
		for ci, c := range g.Cubes {
			if i := next[ci]; i < len(c) && c[i].Bucket == bucket {
				next[ci]++
			}
		}
	}
}

// appendGroupRow appends one output row of group g; a roll-up's row is
// that of bucket, whose cells sit at next in the cube states. An empty
// state finalizes to NULL, and so does a bucket that one of the states
// lacks, which only a peer's frame can send.
func (p *plan) appendGroupRow(b *ColumnBatch, g *GroupState, bucket int64, next []int) {
	c := 0
	for _, pi := range p.items {
		if pi.cubeIdx == 0 {
			b.appendInt64(c, bucket)
			c++
		}
		if pi.groupIdx >= 0 {
			// checkPartial has matched the key's cells to the column types.
			switch v := g.Key[pi.groupIdx].(type) {
			case int64:
				b.appendInt64(c, v)
			case float64:
				b.appendFloat64(c, v)
			case string:
				b.appendString(c, v)
			}
		} else {
			var s ScalarState
			if pi.scalarIdx >= 0 {
				s = g.Scalars[pi.scalarIdx]
			} else if cube, i := g.Cubes[pi.cubeIdx], next[pi.cubeIdx]; i < len(cube) && cube[i].Bucket == bucket {
				s = cube[i].ScalarState
			}
			if v, ok := s.Finalize(pi.sel.Agg); ok {
				b.appendFloat64(c, v)
			} else {
				b.appendNull(c)
			}
		}
		c++
	}
	b.finishRow()
}
