package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"
)

// env is what a run is given besides the workload: the contract's
// three knobs and where temporary state may live.
type env struct {
	sc     scale
	seed   int64
	window time.Duration
	tmp    string    // parent of every temp dir the run creates
	log    io.Writer // the human-readable report
	// pins enables the input-checksum pins (full scale only).
	pins bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: the contract's four keys plus the
// provenance -out records for -compare.
type report struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Meta      map[string]any         `json:"meta"`
	Checksum  string                 `json:"checksum"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`

	mu sync.Mutex
}

// op accounts one attempted operation; a non-nil err fails it.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *report) set(defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(fmt.Errorf("metric %s has no finite value (%v): nothing was measured", name, v))
		v = 0
	}
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in workloads.go")
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// appends is the number of open-loop appends a window holds.
func (e *env) appends(window time.Duration) int {
	return int(float64(e.sc.httpRate) * window.Seconds())
}

// setUp builds the workload from nothing — inputs from the seed, the
// system, and (for every workload but ingest_bulk, whose loads are its
// measured operation) the preload — and reports how long that took.
func (e *env) setUp(ctx context.Context, def workloadDef) (*instance, *loadSample, time.Duration, error) {
	t0 := time.Now()
	in, err := generate(def, e.sc, e.seed, e.appends(e.window))
	if err != nil {
		return nil, nil, 0, err
	}
	inst, err := open(in, e.tmp)
	if err != nil {
		return nil, nil, 0, err
	}
	var ls *loadSample
	if def.name != wIngestBulk {
		s, err := inst.load(ctx)
		if err != nil {
			inst.close()
			return nil, nil, 0, fmt.Errorf("preload: %w", err)
		}
		ls = &s
	}
	return inst, ls, time.Since(t0), nil
}

// samples are the raw measurements of one run.
type samples struct {
	setupS     []float64
	ingestRate []float64
	appendMs   []float64
	refreshMs  []float64
	queryMs    map[string][]float64
	lateMs     []float64
	bytesPerPt float64
	refreshes  int
	span       time.Duration // wall time the measured loops ran
	// trackHeap makes opDone sample the heap (traced run only: reading
	// memory statistics stops the world).
	trackHeap bool
	heapPeak  uint64
}

// opDone marks the end of one client operation.
func (s *samples) opDone() {
	if !s.trackHeap {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapPeak = max(s.heapPeak, m.HeapInuse)
}

func (s *samples) addLoad(r *report, ls loadSample) {
	s.ingestRate = append(s.ingestRate, ls.pointsPerS)
	s.appendMs = append(s.appendMs, ls.appendMs...)
	if s.bytesPerPt != 0 && s.bytesPerPt != ls.bytesPerPoint {
		r.op(fmt.Errorf("bytes_per_point is not reproducible: %.17g then %.17g for one seed", s.bytesPerPt, ls.bytesPerPoint))
	}
	s.bytesPerPt = ls.bytesPerPoint
}

// run measures one workload with tracing off and fills in the
// end-to-end metrics.
func (e *env) run(ctx context.Context, def workloadDef) (*report, error) {
	r := newReport(e, def, false)
	s := &samples{queryMs: map[string][]float64{}}
	inst, err := e.prepare(ctx, def, r, s)
	if err != nil {
		return nil, err
	}
	defer func() { inst.close() }()
	p := newPanels(inst, r)

	switch def.name {
	case wIngestBulk:
		if inst, err = e.ingestFor(ctx, inst, p, r, s, 0); err != nil { // warm-up
			return nil, err
		}
		*s = samples{setupS: s.setupS, queryMs: map[string][]float64{}}
		runtime.GC()
		if inst, err = e.ingestFor(ctx, inst, p, r, s, e.window); err != nil {
			return nil, err
		}
		e.durability(ctx, inst, r)
	case wMixedHTTP:
		if err := e.warmMixed(ctx, inst, p, s); err != nil {
			return nil, err
		}
		runtime.GC()
		e.mixedFor(ctx, inst, p, r, s, inst.in.bodies)
		if err := e.finishMixed(ctx, inst, r, s); err != nil {
			return nil, err
		}
	default:
		p.refresh(ctx, s, false) // warm-up, and the full oracle check of every answer
		runtime.GC()
		e.refreshFor(ctx, p, s, e.window)
		p.crossCheck(ctx)
	}
	r.set(endToEnd, "setup_s", median(s.setupS))
	r.set(endToEnd, "ingest_points_per_s", median(s.ingestRate))
	r.set(endToEnd, "bytes_per_point", s.bytesPerPt)
	r.set(endToEnd, "refresh_p50_ms", median(s.refreshMs))
	r.set(endToEnd, "append_p50_ms", median(s.appendMs))
	e.describe(r, s)
	r.Correct = r.Failed == 0
	return r, nil
}

// prepare sets the workload up setupRepeats times, keeps the last
// instance, and checks the inputs against their pin.
func (e *env) prepare(ctx context.Context, def workloadDef, r *report, s *samples) (*instance, error) {
	var inst *instance
	for k := 0; k < setupRepeats; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k, err)
			}
		}
		var ls *loadSample
		var took time.Duration
		var err error
		runtime.GC() // every set-up starts from a collected heap
		inst, ls, took, err = e.setUp(ctx, def)
		if err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, took.Seconds())
		if ls != nil {
			s.addLoad(r, *ls)
		}
	}
	r.Checksum = fmt.Sprintf("%016x", inst.in.checksum)
	if err := e.checkPin(inst.in); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// checkPin aborts the run when the inputs of a pinned (workload, seed)
// no longer hash to the pinned value.
func (e *env) checkPin(in *inputs) error {
	want, ok := pinned[pinKey(in.def.name, e.seed)]
	if !ok || !e.pins || want == in.checksum {
		return nil
	}
	return fmt.Errorf("%s seed %d: input checksum %016x, pinned %016x — the generated inputs changed; see README.md, Input pinning",
		in.def.name, e.seed, in.checksum, want)
}

// panels holds the reader's side of a run: the expectations of every
// panel query and, once an answer passed the oracle, that answer, so
// repeats of a deterministic query re-verify by equality.
type panels struct {
	inst     *instance
	r        *report
	eps      float64
	variants [][]qspec
	want     map[string]*expectation
	verified map[string]*answer
	next     int
	// tr records spans in the traced run; nil (every method a no-op)
	// when tracing is off.
	tr *tracer
}

func newPanels(inst *instance, r *report) *panels {
	p := &panels{
		inst: inst, r: r, eps: inst.in.def.bound.Value / 100,
		variants: inst.in.panels,
		want:     map[string]*expectation{},
		verified: map[string]*answer{},
	}
	o := newOracle(inst.in)
	for _, panel := range inst.in.allPanels() {
		for _, q := range panel {
			p.want[q.text] = o.expect(q)
		}
	}
	return p
}

// verify checks one answer and accounts the operation.
func (p *panels) verify(sql string, a *answer, err error) {
	if err != nil {
		p.r.op(fmt.Errorf("%s: %w", sql, err))
		return
	}
	if v := p.verified[sql]; v != nil && v.same(a) {
		p.r.op(nil)
		return
	}
	t, err := a.table()
	if err == nil {
		err = p.want[sql].check(t, p.eps)
	}
	if err == nil {
		p.verified[sql] = a
	}
	p.r.op(err)
}

// refresh issues the next panel's queries back to back, timing SQL
// text → last row consumed for each and for the whole panel, then
// checks every answer (outside the timing).
func (p *panels) refresh(ctx context.Context, s *samples, record bool) {
	panel := p.variants[p.next%len(p.variants)]
	p.next++
	answers := make([]*answer, len(panel))
	errs := make([]error, len(panel))
	took := make([]time.Duration, len(panel))
	op, root := p.tr.beginOp("client.refresh")
	start := time.Now()
	for i, q := range panel {
		sp := p.tr.begin("client.query."+q.id, root, op)
		t0 := time.Now()
		answers[i], errs[i] = p.inst.query(ctx, q.text)
		took[i] = time.Since(t0)
		p.tr.end(sp, 0)
	}
	total := time.Since(start)
	p.tr.end(root, 0)
	if record {
		s.refreshMs = append(s.refreshMs, ms(total))
		s.refreshes++
		s.opDone()
		for i, q := range panel {
			s.queryMs[q.id] = append(s.queryMs[q.id], ms(took[i]))
		}
	}
	for i, q := range panel {
		p.verify(q.text, answers[i], errs[i])
	}
}

// crossCheck asks the other view the same questions and requires the
// same sums: agg_segment ≡ agg_datapoint.
func (p *panels) crossCheck(ctx context.Context) {
	own := p.variants[0]
	if len(p.inst.in.cross) == 0 {
		return
	}
	for i, q := range p.inst.in.cross {
		a, err := p.inst.query(ctx, q.text)
		p.verify(q.text, a, err)
		if err != nil {
			continue
		}
		err = func() error {
			other, err := a.table()
			if err != nil {
				return err
			}
			mine := p.verified[own[i].text]
			if mine == nil {
				return fmt.Errorf("no verified answer to compare with")
			}
			mt, err := mine.table()
			if err != nil {
				return err
			}
			a, err := collapse(own[i], mt)
			if err != nil {
				return err
			}
			b, err := collapse(q, other)
			if err != nil {
				return err
			}
			return sameSums(a, b)
		}()
		if err != nil {
			err = fmt.Errorf("%s on %s and %s views disagree: %w", q.id, own[i].view, q.view, err)
		}
		p.r.op(err)
	}
}

// refreshFor is the closed-loop reader of agg_segment, agg_datapoint
// and scatter_tcp2: one client, next refresh when the last one ended.
func (e *env) refreshFor(ctx context.Context, p *panels, s *samples, window time.Duration) {
	start := time.Now()
	for time.Since(start) < window {
		p.refresh(ctx, s, true)
	}
	s.span += time.Since(start)
}

// ingestFor is ingest_bulk's writer: load the data set into a fresh
// store, flush, read the writes back, and repeat until the window is
// spent (at least once). It returns the last store, still open.
func (e *env) ingestFor(ctx context.Context, inst *instance, p *panels, r *report, s *samples, window time.Duration) (*instance, error) {
	start := time.Now()
	for reps := 0; reps < 1 || time.Since(start) < window; reps++ {
		if err := inst.close(); err != nil {
			return inst, err
		}
		var err error
		if inst, err = open(inst.in, e.tmp); err != nil {
			return inst, err
		}
		p.inst = inst
		op, root := p.tr.beginOp("client.ingest_rep")
		sp := p.tr.begin("client.load", root, op)
		ls, err := inst.load(ctx)
		p.tr.end(sp, int64(len(inst.in.points)))
		r.op(err)
		if err != nil {
			return inst, err
		}
		s.addLoad(r, ls)
		for i := 0; i < 3; i++ {
			p.refresh(ctx, s, true)
		}
		p.tr.end(root, 0)
		s.opDone()
	}
	s.span += time.Since(start)
	return inst, nil
}

// durability closes the last store, reopens it and counts: every
// acknowledged point must have survived.
func (e *env) durability(ctx context.Context, inst *instance, r *report) {
	n, err := inst.reopenCount(ctx)
	if err == nil && n != int64(len(inst.in.points)) {
		err = fmt.Errorf("reopened store counts %d points, %d were acknowledged", n, len(inst.in.points))
	}
	r.op(err)
}

// warmMixed warms both connections of mixed_http: one refresh per
// panel variant verifies every expected answer before the window opens.
func (e *env) warmMixed(ctx context.Context, inst *instance, p *panels, s *samples) error {
	for range inst.in.panels {
		p.refresh(ctx, s, false)
	}
	if _, err := post(ctx, inst.writer, inst.url+"/api/v1/append", "application/json", "", []byte(`{"points":[]}`)); err != nil {
		return fmt.Errorf("warm-up append: %w", err)
	}
	// The bulk preload's batch latencies belong to ingest_points_per_s;
	// on this workload append_p50_ms is the HTTP append.
	s.appendMs = s.appendMs[:0]
	return nil
}

// mixedFor is mixed_http's window: connection A posts bodies on a fixed
// schedule (open loop, each latency counted from its due time) while
// connection B refreshes its panel (closed loop) until A has sent
// everything.
func (e *env) mixedFor(ctx context.Context, inst *instance, p *panels, r *report, s *samples, bodies [][]byte) {
	interval := time.Second / time.Duration(e.sc.httpRate)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() { // connection A
		defer wg.Done()
		defer close(done)
		for i, body := range bodies {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			s.lateMs = append(s.lateMs, ms(max(0, time.Since(due))))
			_, sp := p.tr.beginOp("client.append")
			_, err := post(ctx, inst.writer, inst.url+"/api/v1/append", "application/json", "", body)
			s.appendMs = append(s.appendMs, ms(time.Since(due)))
			p.tr.end(sp, int64(e.sc.httpPoints))
			r.op(err)
		}
	}()
	go func() { // connection B
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				p.refresh(ctx, s, true)
			}
		}
	}()
	wg.Wait()
	s.span += time.Since(start)
}

// finishMixed flushes, takes the footprint and checks that every
// acknowledged append is readable.
func (e *env) finishMixed(ctx context.Context, inst *instance, r *report, s *samples) error {
	in := inst.in
	err := inst.db.Flush()
	r.op(err)
	if err != nil {
		return nil
	}
	st, err := inst.db.Stats()
	if err != nil {
		return err
	}
	total := int64(len(in.points) + len(in.stream))
	if st.DataPoints != total {
		r.op(fmt.Errorf("stats report %d points, %d were acknowledged", st.DataPoints, total))
	}
	s.bytesPerPt = float64(st.StorageBytes) / float64(st.DataPoints)
	a, err := inst.query(ctx, "SELECT COUNT_S(*) FROM Segment")
	if err == nil {
		var t *table
		if t, err = a.table(); err == nil && len(t.rows) != 1 {
			err = fmt.Errorf("COUNT_S(*) returned %d rows", len(t.rows))
		}
		if err == nil {
			if n, _ := num(t.rows[0][0]); int64(n) != total {
				err = fmt.Errorf("store counts %v points, %d were acknowledged", t.rows[0][0], total)
			}
		}
	}
	r.op(err)
	return nil
}

// describe prints the run's diagnostics and flags missed floors.
func (e *env) describe(r *report, s *samples) {
	tailV, tailP := tail(s.refreshMs)
	fmt.Fprintf(e.log, "  refreshes %d (%.1f/s), refresh tail p%.1f = %.3f ms over %d samples\n",
		s.refreshes, float64(s.refreshes)/s.span.Seconds(), tailP, tailV, len(s.refreshMs))
	for _, id := range []string{"q1", "q2", "q3", "q4"} {
		if v := s.queryMs[id]; len(v) > 0 {
			fmt.Fprintf(e.log, "  %s p50 %.3f ms\n", id, median(v))
		}
	}
	if len(s.lateMs) > 0 {
		fmt.Fprintf(e.log, "  open-loop generator lateness p50 %.3f ms\n", median(s.lateMs))
	}
	if e.sc != fullScale {
		return
	}
	switch r.Workload {
	case wIngestBulk:
		if n := len(s.ingestRate); n < floorIngestReps {
			r.note("only %d ingest repetitions, floor is %d", n, floorIngestReps)
		}
	case wMixedHTTP:
		if n := len(s.appendMs); n < floorAppends {
			r.note("only %d appends, floor is %d", n, floorAppends)
		}
		fallthrough
	default:
		if s.refreshes < floorRefreshes {
			r.note("only %d refreshes, floor is %d", s.refreshes, floorRefreshes)
		}
	}
}
