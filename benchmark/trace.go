package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/httpapi"
	"modelardb/internal/models"
	"modelardb/internal/partition"
	"modelardb/internal/query"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
	"modelardb/internal/wal"
)

// span is one timed call — or one batch of calls, for layers entered
// once per point or segment — into a layer's exported functions.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into spans, -1 for an operation's root
	Op     int    `json:"op"`     // spans of one operation share it
	N      int64  `json:"n"`      // work items the call covered (points, segments, rows)
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method returns at once, so the untraced
// run records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts a new operation and its root span.
func (t *tracer) beginOp(name string) (op, root int) {
	if t == nil {
		return -1, -1
	}
	t.mu.Lock()
	t.ops++
	op = t.ops
	t.mu.Unlock()
	return op, t.begin(name, -1, op)
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// call wraps one call (or batch of calls) covering n work items.
func (t *tracer) call(name string, parent, op int, n int64, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id, n)
}

// busy sums the duration and the work items of every span named name.
func (t *tracer) busy(name string) (d time.Duration, n int64) {
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n += s.N
		}
	}
	return d, n
}

// per is busy time per work item, in nanoseconds.
func (t *tracer) per(names ...string) float64 {
	var d time.Duration
	var n int64
	for i, name := range names {
		bd, bn := t.busy(name)
		d += bd
		if i == 0 {
			n = bn // the first name carries the item count
		}
	}
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// write stores the spans as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayChunk is how many per-segment calls one replay span covers.
const replayChunk = 512

// stagedRefreshes is how many panel refreshes the staged replay runs.
const stagedRefreshes = 8

// runTraced is the --trace 1 run: it sets the workload up once, drives
// the same client loops as the untraced run — a quarter window without
// and a quarter with spans, whose ratio is the tracing overhead — then
// replays the workload's recorded inputs through each module's exported
// functions with a span around every call, and fills in the per-layer
// metrics. The spans go to tracePath.
func (e *env) runTraced(ctx context.Context, def workloadDef, tracePath string) (*report, error) {
	r := newReport(e, def, true)
	tr := newTracer()
	quarter := e.window / 4

	// Set-up, once, with a span per stage. mixed_http's append stream
	// covers the two client passes.
	op, root := tr.beginOp("setup")
	var in *inputs
	var err error
	tr.call("inputs.generate", root, op, 0, func() { in, err = generate(def, e.sc, e.seed, e.appends(2*quarter)) })
	if err != nil {
		return nil, err
	}
	if err := replayPartition(tr, root, op, in); err != nil {
		return nil, err
	}
	var inst *instance
	tr.call("system.open", root, op, 0, func() { inst, err = open(in, e.tmp) })
	if err != nil {
		return nil, err
	}
	defer func() { inst.close() }()
	if def.name != wIngestBulk {
		tr.call("system.load", root, op, int64(len(in.points)), func() { _, err = inst.load(ctx) })
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	tr.end(root, 0)
	r.Checksum = fmt.Sprintf("%016x", in.checksum)
	if def.name != wMixedHTTP { // whose traced append stream is shorter than the pinned one
		if err := e.checkPin(in); err != nil {
			return nil, err
		}
	}

	lr := &layerReplay{e: e, tr: tr, r: r, in: in, inst: inst, orc: newOracle(in), v: map[string]float64{}}
	// The core replay runs first: it rebuilds the store's segments from
	// the recorded points, and the preloaded store must hold as many.
	if err := lr.core(); err != nil {
		return nil, err
	}
	if def.name != wIngestBulk {
		st, err := inst.stats(ctx)
		if err != nil {
			return nil, err
		}
		if st.Segments != int64(len(lr.segs)) {
			r.op(fmt.Errorf("core replay emitted %d segments, the store holds %d", len(lr.segs), st.Segments))
		}
	}

	// Client passes: A untraced, B traced.
	p := newPanels(inst, r)
	a := &samples{queryMs: map[string][]float64{}}
	b := &samples{queryMs: map[string][]float64{}, trackHeap: true}
	pass := func(s *samples, t *tracer, bodies [][]byte) error {
		p.tr = t
		defer func() { p.tr = nil }()
		switch def.name {
		case wIngestBulk:
			inst, err = e.ingestFor(ctx, inst, p, r, s, quarter)
			lr.inst = inst // every repetition opens a fresh store
			return err
		case wMixedHTTP:
			e.mixedFor(ctx, inst, p, r, s, bodies)
		default:
			e.refreshFor(ctx, p, s, quarter)
		}
		return nil
	}
	switch def.name {
	case wMixedHTTP:
		if err := e.warmMixed(ctx, inst, p, a); err != nil {
			return nil, err
		}
	case wIngestBulk:
	default:
		p.refresh(ctx, a, false)
	}
	half := len(in.bodies) / 2
	runtime.GC()
	if err := pass(a, nil, in.bodies[:half]); err != nil {
		return nil, err
	}
	runtime.GC()
	before := lr.snapshot()
	if def.name == wIngestBulk {
		// The traced pass ends on a store of its own, whose counters
		// start at zero.
		before = map[string]float64{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pass(b, tr, in.bodies[half:]); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	after := lr.snapshot()
	if def.name == wMixedHTTP {
		if err := e.finishMixed(ctx, inst, r, b); err != nil {
			return nil, err
		}
	}

	// Staged and layer replays.
	for _, step := range []func() error{lr.models, lr.codec, lr.wal, lr.storage, lr.views, lr.staged, lr.http} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if def.name == wIngestBulk {
		e.durability(ctx, inst, r)
	} else {
		p.crossCheck(ctx)
	}

	// Client-side diagnostics come from the traced pass.
	ops := len(b.refreshMs)
	opMs, opMsA := b.refreshMs, a.refreshMs
	if def.name == wIngestBulk {
		ops = len(b.ingestRate)
		opMs, opMsA = loadMs(in, b.ingestRate), loadMs(in, a.ingestRate)
	}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	for _, id := range []string{"q1", "q2", "q3", "q4"} {
		v := 0.0
		if len(b.queryMs[id]) > 0 {
			v = median(b.queryMs[id])
		}
		set("client.query_p50_ms."+id, v)
	}
	set("client.refreshes_per_s", float64(b.refreshes)/b.span.Seconds())
	set("client.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(ops, 1)))
	set("client.heap_peak_mb", float64(b.heapPeak)/(1<<20))
	tailMs, tailP := tail(b.refreshMs)
	set("client.tail_ms", tailMs)
	set("client.tail_percentile", tailP)
	set("client.tail_samples", float64(len(b.refreshMs)))
	late := 0.0
	if len(b.lateMs) > 0 {
		late = median(b.lateMs)
	}
	set("client.late_ms_p50", late)

	hits := after[modelardb.MetricCacheHits] - before[modelardb.MetricCacheHits]
	misses := after[modelardb.MetricCacheMisses] - before[modelardb.MetricCacheMisses]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	set("query.cache_hit_ratio", ratio)
	if def.name == wScatterTCP2 && b.refreshes > 0 {
		// On the cluster the workers count what really crossed the wire.
		lr.v["cluster.chunks_per_refresh"] = (after["modelardb_rpc_stream_chunks_total"] - before["modelardb_rpc_stream_chunks_total"]) / float64(b.refreshes)
		lr.v["cluster.bytes_per_refresh"] = (after["modelardb_rpc_stream_bytes_total"] - before["modelardb_rpc_stream_bytes_total"]) / float64(b.refreshes)
	}
	groupD, _ := tr.busy("partition.Group")
	set("partition.group_ms", ms(groupD))
	for name, v := range lr.v {
		set(name, v)
	}

	// Coverage: the layers' busy time for one operation over the
	// operation's untraced time. Overhead: traced over untraced.
	untraced := median(opMsA)
	set("trace.coverage", lr.stagedMs/untraced)
	set("trace.overhead", median(opMs)/untraced-1)
	fmt.Fprintf(e.log, "  coverage %.3f (layer busy time %.3f ms of an untraced operation's %.3f ms); tracing overhead %+.2f%%\n",
		lr.stagedMs/untraced, lr.stagedMs, untraced, 100*(median(opMs)/untraced-1))

	if err := tr.write(tracePath, r.Meta); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(e.log, "  %d spans written to %s\n", len(tr.spans), tracePath)
	r.Correct = r.Failed == 0
	return r, nil
}

// loadMs turns ingest rates back into the duration of one load.
func loadMs(in *inputs, rates []float64) []float64 {
	out := make([]float64, len(rates))
	for i, rate := range rates {
		out[i] = 1000 * float64(len(in.points)) / rate
	}
	return out
}

// replayPartition times the Partitioner on the workload's series.
func replayPartition(tr *tracer, root, op int, in *inputs) error {
	schema, err := dims.NewSchema(in.cfg.Dimensions...)
	if err != nil {
		return err
	}
	series := make([]*core.TimeSeries, len(in.cfg.Series))
	for i, sc := range in.cfg.Series {
		series[i] = &core.TimeSeries{Tid: core.Tid(i + 1), SI: sc.SI, Source: sc.Source, Members: sc.Members}
	}
	clauses, err := partition.ParseAll(schema, in.cfg.Correlations...)
	if err != nil {
		return err
	}
	tr.call("partition.Group", root, op, int64(len(series)), func() {
		_, err = partition.New(schema, clauses...).Group(series)
	})
	return err
}

// layerReplay feeds the workload's recorded inputs — its points, the
// segments they compress to, its panel SQL — through one module at a
// time. Results land in v, keyed by per-layer metric name.
type layerReplay struct {
	e    *env
	tr   *tracer
	r    *report
	in   *inputs
	inst *instance
	orc  *oracle
	v    map[string]float64

	meta    *core.MetadataCache
	segs    []*core.Segment // every segment the points compress to, in emit order
	decoded []models.AggView
	// stagedMs is the layers' busy time for one client operation.
	stagedMs float64
}

// dbs are the databases holding the workload's data.
func (lr *layerReplay) dbs() []*modelardb.DB {
	if lr.inst.db != nil {
		return []*modelardb.DB{lr.inst.db}
	}
	return lr.inst.workers
}

// snapshot sums the registries of every database of the system.
func (lr *layerReplay) snapshot() map[string]float64 {
	total := map[string]float64{}
	for _, db := range lr.dbs() {
		for k, v := range db.Snapshot() {
			total[k] += v
		}
	}
	return total
}

// core replays group ingestion into a collecting sink.
func (lr *layerReplay) core() error {
	op, root := lr.tr.beginOp("replay.core")
	defer lr.tr.end(root, 0)
	lr.meta = lr.dbs()[0].Metadata()
	cfg := core.IngestorConfig{
		Generator: core.GeneratorConfig{
			Registry:    models.NewBuiltinRegistry(),
			Bound:       lr.in.cfg.ErrorBound,
			LengthLimit: lr.in.cfg.LengthLimit,
			OnSegment:   func(s *core.Segment) error { lr.segs = append(lr.segs, s); return nil },
		},
		SplitFraction:    lr.in.cfg.SplitFraction,
		DisableSplitting: lr.in.cfg.DisableSplitting,
	}
	n := lr.meta.NumSeries()
	byTid := make([]*core.GroupIngestor, n+1)
	scaling := make([]float32, n+1)
	var all []*core.GroupIngestor
	for _, gid := range lr.meta.Groups() {
		tids := lr.meta.TidsOf(gid)
		first, err := lr.meta.Series(tids[0])
		if err != nil {
			return err
		}
		gi := core.NewGroupIngestor(cfg, gid, first.SI, tids)
		all = append(all, gi)
		for _, tid := range tids {
			ts, err := lr.meta.Series(tid)
			if err != nil {
				return err
			}
			byTid[tid], scaling[tid] = gi, ts.Scaling
		}
	}
	pts := lr.in.points
	var err error
	for i := 0; i < len(pts) && err == nil; i += batchPoints {
		batch := pts[i:min(i+batchPoints, len(pts))]
		lr.tr.call("core.GroupIngestor.Append", root, op, int64(len(batch)), func() {
			for _, p := range batch {
				if err = byTid[p.Tid].Append(p.Tid, p.TS, p.Value*scaling[p.Tid]); err != nil {
					return
				}
			}
		})
	}
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	lr.tr.call("core.GroupIngestor.Flush", root, op, 0, func() {
		for _, gi := range all {
			if err = gi.Flush(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}
	lr.v["core.ingest_ns_per_point"] = lr.tr.per("core.GroupIngestor.Append", "core.GroupIngestor.Flush")

	// What each model type represents, from the emitted segments.
	pointsBy, segsBy := map[models.MID]int64{}, map[models.MID]int64{}
	for _, s := range lr.segs {
		active := len(lr.meta.TidsOf(s.Gid)) - len(s.GapTids)
		pointsBy[s.MID] += int64(s.Length() * active)
		segsBy[s.MID]++
	}
	for mid, name := range map[models.MID]string{models.MidPMC: "pmc", models.MidSwing: "swing", models.MidGorilla: "gorilla"} {
		ppm := 0.0
		if segsBy[mid] > 0 {
			ppm = float64(pointsBy[mid]) / float64(segsBy[mid])
		}
		lr.v["models.points_per_model."+name] = ppm
		lr.v["models.share."+name] = 100 * float64(segsBy[mid]) / float64(max(len(lr.segs), 1))
	}
	return nil
}

// models fits every model type alone to the groups' complete ticks.
func (lr *layerReplay) models() error {
	op, root := lr.tr.beginOp("replay.models")
	defer lr.tr.end(root, 0)
	pts := lr.in.points[:min(len(lr.in.points), lr.e.sc.replayPoints)]
	// rows[gid] holds the group's ticks that have every member present,
	// values ordered by member position.
	type grid struct {
		members []core.Tid
		pos     map[core.Tid]int
		rows    [][]float32
		cur     []float32
		have    int
		ts      int64
	}
	grids := map[core.Gid]*grid{}
	byTid := make([]*grid, lr.meta.NumSeries()+1)
	for _, gid := range lr.meta.Groups() {
		g := &grid{members: lr.meta.TidsOf(gid), pos: map[core.Tid]int{}, ts: -1}
		for i, tid := range g.members {
			g.pos[tid] = i
			byTid[tid] = g
		}
		grids[gid] = g
	}
	for _, p := range pts {
		g := byTid[p.Tid]
		if p.TS != g.ts {
			g.ts, g.have, g.cur = p.TS, 0, make([]float32, len(g.members))
		}
		g.cur[g.pos[p.Tid]] = p.Value
		if g.have++; g.have == len(g.members) {
			g.rows = append(g.rows, g.cur)
		}
	}
	limit := lr.in.cfg.LengthLimit
	reg := models.NewBuiltinRegistry()
	for _, mt := range reg.Types() {
		name := "models.fit." + mt.Name()
		for _, gid := range lr.meta.Groups() {
			g := grids[gid]
			n := len(g.members)
			lr.tr.call(name, root, op, int64(len(g.rows)*n), func() {
				m := mt.New(lr.in.cfg.ErrorBound, n)
				for _, row := range g.rows {
					if m.Length() >= limit || !m.Append(row) {
						m = mt.New(lr.in.cfg.ErrorBound, n)
						m.Append(row)
					}
				}
			})
		}
	}
	lr.v["models.fit_ns_per_point.pmc"] = lr.tr.per("models.fit.PMC")
	lr.v["models.fit_ns_per_point.swing"] = lr.tr.per("models.fit.Swing")
	lr.v["models.fit_ns_per_point.gorilla"] = lr.tr.per("models.fit.Gorilla")
	return nil
}

// sample is the prefix of the replayed segments the per-segment
// replays use.
func (lr *layerReplay) sample() []*core.Segment {
	return lr.segs[:min(len(lr.segs), lr.e.sc.replaySegments)]
}

// chunks calls fn for consecutive replayChunk-sized slices of segs.
func chunks(segs []*core.Segment, fn func(lo int, part []*core.Segment)) {
	for lo := 0; lo < len(segs); lo += replayChunk {
		fn(lo, segs[lo:min(lo+replayChunk, len(segs))])
	}
}

// codec encodes and decodes the sampled segments.
func (lr *layerReplay) codec() error {
	op, root := lr.tr.beginOp("replay.codec")
	defer lr.tr.end(root, 0)
	segs := lr.sample()
	enc := make([][]byte, len(segs))
	chunks(segs, func(lo int, part []*core.Segment) {
		lr.tr.call("core.Segment.Encode", root, op, int64(len(part)), func() {
			for i, s := range part {
				enc[lo+i] = s.Encode(lr.meta.TidsOf(s.Gid))
			}
		})
	})
	var err error
	chunks(segs, func(lo int, part []*core.Segment) {
		lr.tr.call("core.DecodeSegment", root, op, int64(len(part)), func() {
			for i, s := range part {
				if _, derr := core.DecodeSegment(enc[lo+i], lr.meta.TidsOf(s.Gid)); derr != nil && err == nil {
					err = derr
				}
			}
		})
	})
	lr.v["core.segment_encode_ns"] = lr.tr.per("core.Segment.Encode")
	lr.v["core.segment_decode_ns"] = lr.tr.per("core.DecodeSegment")
	return err
}

// wal logs the recorded points the way DB.AppendBatch does: one record
// per group slice of each batch, under the workload's fsync policy.
func (lr *layerReplay) wal() error {
	op, root := lr.tr.beginOp("replay.wal")
	defer lr.tr.end(root, 0)
	dir, err := os.MkdirTemp(lr.e.tmp, "wal-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	policy, err := wal.ParsePolicy(lr.in.cfg.WALFsync)
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{Dir: dir, Sync: policy})
	if err != nil {
		return err
	}
	pts := lr.in.points[:min(len(lr.in.points), lr.e.sc.replayPoints)]
	gidOf := make([]core.Gid, lr.meta.NumSeries()+1)
	for tid := 1; tid <= lr.meta.NumSeries(); tid++ {
		if gidOf[tid], err = lr.meta.GidOf(core.Tid(tid)); err != nil {
			return err
		}
	}
	slices := map[core.Gid][]core.DataPoint{}
	for i := 0; i < len(pts) && err == nil; i += batchPoints {
		batch := pts[i:min(i+batchPoints, len(pts))]
		for gid := range slices {
			slices[gid] = slices[gid][:0]
		}
		for _, p := range batch {
			slices[gidOf[p.Tid]] = append(slices[gidOf[p.Tid]], p)
		}
		lr.tr.call("wal.Append", root, op, int64(len(batch)), func() {
			for _, gid := range lr.meta.Groups() {
				if len(slices[gid]) == 0 {
					continue
				}
				if _, err = w.Append(gid, 0, slices[gid]); err != nil {
					return
				}
			}
		})
	}
	if err != nil {
		w.Close()
		return fmt.Errorf("wal replay: %w", err)
	}
	lr.tr.call("wal.Sync", root, op, 0, func() { err = w.Sync() })
	size, fsyncs := w.SizeBytes(), w.FsyncCount()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	lr.v["wal.append_ns_per_point"] = lr.tr.per("wal.Append")
	lr.v["wal.bytes_per_point"] = float64(size) / float64(max(len(pts), 1))
	lr.v["wal.fsyncs"] = float64(fsyncs)
	return nil
}

// storage inserts every replayed segment into a fresh file store and
// scans it back.
func (lr *layerReplay) storage() error {
	op, root := lr.tr.beginOp("replay.storage")
	defer lr.tr.end(root, 0)
	dir, err := os.MkdirTemp(lr.e.tmp, "store-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := storage.OpenFileStore(dir, func(gid core.Gid) []core.Tid { return lr.meta.TidsOf(gid) }, lr.in.cfg.BulkWriteSize)
	if err != nil {
		return err
	}
	defer fs.Close()
	chunks(lr.segs, func(lo int, part []*core.Segment) {
		lr.tr.call("storage.Insert", root, op, int64(len(part)), func() {
			for _, s := range part {
				if ierr := fs.Insert(s); ierr != nil && err == nil {
					err = ierr
				}
			}
		})
	})
	if err != nil {
		return fmt.Errorf("storage replay: %w", err)
	}
	lr.tr.call("storage.Flush", root, op, 0, func() { err = fs.Flush() })
	if err != nil {
		return fmt.Errorf("storage replay: %w", err)
	}
	var scanned int64
	id := lr.tr.begin("storage.Scan", root, op)
	err = fs.Scan(context.Background(), storage.AllTime(), func(*core.Segment) error { scanned++; return nil })
	lr.tr.end(id, scanned)
	if err != nil {
		return fmt.Errorf("storage replay: %w", err)
	}
	if scanned != int64(len(lr.segs)) {
		lr.r.op(fmt.Errorf("storage replay scanned %d segments of %d inserted", scanned, len(lr.segs)))
	}
	lr.v["storage.insert_ns_per_segment"] = lr.tr.per("storage.Insert", "storage.Flush")
	lr.v["storage.scan_ns_per_segment"] = lr.tr.per("storage.Scan")
	return nil
}

// views decodes the sampled segments' models, folds them closed-form
// and reconstructs their points.
func (lr *layerReplay) views() error {
	op, root := lr.tr.beginOp("replay.views")
	defer lr.tr.end(root, 0)
	reg := models.NewBuiltinRegistry()
	segs := lr.sample()
	lr.decoded = make([]models.AggView, len(segs))
	var err error
	chunks(segs, func(lo int, part []*core.Segment) {
		lr.tr.call("models.View", root, op, int64(len(part)), func() {
			for i, s := range part {
				active := len(lr.meta.TidsOf(s.Gid)) - len(s.GapTids)
				v, verr := reg.View(s.MID, s.Params, active, s.Length())
				if verr != nil && err == nil {
					err = verr
				}
				lr.decoded[lo+i] = v
			}
		})
	})
	if err != nil {
		return fmt.Errorf("view replay: %w", err)
	}
	var sink float64
	chunks(segs, func(lo int, part []*core.Segment) {
		lr.tr.call("models.AggView.Range", root, op, int64(len(part)), func() {
			for i := range part {
				v := lr.decoded[lo+i]
				for s := 0; s < v.NumSeries(); s++ {
					sink += v.SumRange(s, 0, v.Length()-1) + v.MinRange(s, 0, v.Length()-1) + v.MaxRange(s, 0, v.Length()-1)
				}
			}
		})
	})
	budget := lr.e.sc.replayPoints
	chunks(segs, func(lo int, part []*core.Segment) {
		if budget <= 0 {
			return
		}
		var n int64
		id := lr.tr.begin("models.AggView.ValueAt", root, op)
		for i := range part {
			v := lr.decoded[lo+i]
			for s := 0; s < v.NumSeries(); s++ {
				for k := 0; k < v.Length(); k++ {
					sink += float64(v.ValueAt(s, k))
				}
			}
			n += int64(v.NumSeries() * v.Length())
		}
		lr.tr.end(id, n)
		budget -= int(n)
	})
	runtime.KeepAlive(sink)
	lr.v["models.view_ns_per_segment"] = lr.tr.per("models.View")
	lr.v["models.range_agg_ns_per_segment"] = lr.tr.per("models.AggView.Range")
	lr.v["models.reconstruct_ns_per_point"] = lr.tr.per("models.AggView.ValueAt")
	return nil
}

// matched counts the replayed segments a perfectly pruning scan would
// hand the engine for q: right group, overlapping the time range, with
// at least one wanted series not in a gap.
func (lr *layerReplay) matched(q qspec) int64 {
	want := lr.orc.wanted(q)
	var count int64
	for _, s := range lr.segs {
		if q.ranged && !s.Covers(q.from, q.to) {
			continue
		}
		for _, tid := range lr.meta.TidsOf(s.Gid) {
			if want[tid] && !s.InGap(tid) {
				count++
				break
			}
		}
	}
	return count
}

// staged runs each panel query as its stages — parse, worker partial,
// wire encode / decode / merge of every chunk, finalize — with a span
// per call, a few refreshes over. On the cluster it also times the real
// scatter against the slowest worker's direct partial.
func (lr *layerReplay) staged() error {
	ctx := context.Background()
	dbs := lr.dbs()
	chunkBytes := int(lr.in.cfg.StreamChunkBytes)
	var perRefresh, overheads, partialMs, finalizeMs []float64
	var rows, chunksSent, wireBytes, matched int64
	before := lr.snapshot()
	refreshes := 0
	for rep := 0; rep < stagedRefreshes; rep++ {
		panel := lr.in.panels[rep%len(lr.in.panels)]
		op, root := lr.tr.beginOp("replay.refresh")
		var stagedNs, overheadNs, pNs, fNs int64
		for _, spec := range panel {
			sql := spec.text
			matched += lr.matched(spec)
			var q *sqlparse.Query
			var err error
			t0 := time.Now()
			lr.tr.call("sqlparse.Parse", root, op, 1, func() { q, err = sqlparse.Parse(sql) })
			stagedNs += int64(time.Since(t0))
			if err != nil {
				return err
			}
			accs := make([]*query.PartialResult, len(dbs))
			var slowest, wire int64
			for w, db := range dbs {
				acc, part := &query.PartialResult{}, &query.PartialResult{}
				var encBuf []byte
				var wireNs int64
				t0 := time.Now()
				id := lr.tr.begin("query.ExecutePartialChunks", root, op)
				err := db.Engine().ExecutePartialChunks(ctx, q, chunkBytes, func(chunk *query.PartialResult) error {
					n := int64(chunk.NumRows() + len(chunk.Groups))
					w0 := time.Now()
					lr.tr.call("query.EncodePartial", id, op, n, func() { encBuf = query.EncodePartial(encBuf[:0], chunk) })
					var derr error
					lr.tr.call("query.DecodePartial", id, op, n, func() { derr = query.DecodePartial(encBuf, part) })
					if derr != nil {
						return derr
					}
					lr.tr.call("query.MergePartial", id, op, n, func() { query.MergePartial(acc, part) })
					wireNs += int64(time.Since(w0))
					chunksSent++
					wireBytes += int64(len(encBuf))
					return nil
				})
				took := int64(time.Since(t0))
				lr.tr.end(id, int64(acc.NumRows()+len(acc.Groups)))
				part.ReleaseBatch()
				if err != nil {
					return fmt.Errorf("staged %s: %w", spec.id, err)
				}
				accs[w] = acc
				slowest = max(slowest, took-wireNs)
				wire += wireNs
			}
			pNs += slowest
			stagedNs += slowest
			if len(dbs) > 1 {
				stagedNs += wire // only a cluster pays the codec
			}
			var res *query.Result
			t0 = time.Now()
			lr.tr.call("query.Finalize", root, op, 0, func() { res, err = dbs[0].Engine().Finalize(q, accs) })
			fNs += int64(time.Since(t0))
			stagedNs += int64(time.Since(t0))
			for _, acc := range accs {
				acc.ReleaseBatch()
			}
			if err != nil {
				return fmt.Errorf("staged %s: %w", spec.id, err)
			}
			rows += int64(len(res.Rows))
			if lr.inst.client != nil {
				t0 := time.Now()
				lr.tr.call("cluster.Client.Query", root, op, int64(len(res.Rows)), func() { _, err = lr.inst.client.Query(ctx, sql) })
				if err != nil {
					return err
				}
				overheadNs += int64(time.Since(t0)) - slowest
			}
		}
		lr.tr.end(root, 0)
		refreshes++
		perRefresh = append(perRefresh, float64(stagedNs)/1e6)
		overheads = append(overheads, float64(overheadNs)/1e6)
		partialMs = append(partialMs, float64(pNs)/1e6)
		finalizeMs = append(finalizeMs, float64(fNs)/1e6)
	}
	after := lr.snapshot()
	lr.v["sqlparse.parse_ns_per_query"] = lr.tr.per("sqlparse.Parse")
	lr.v["query.partial_ms"] = median(partialMs)
	lr.v["query.finalize_ms"] = median(finalizeMs)
	lr.v["query.rows_per_refresh"] = float64(rows) / float64(refreshes)
	lr.v["query.wire_encode_ns_per_row"] = lr.tr.per("query.EncodePartial")
	lr.v["query.wire_decode_ns_per_row"] = lr.tr.per("query.DecodePartial")
	lr.v["query.merge_ns_per_row"] = lr.tr.per("query.MergePartial")
	_, wireRows := lr.tr.busy("query.EncodePartial")
	lr.v["query.wire_bytes_per_row"] = float64(wireBytes) / float64(max(wireRows, 1))
	lr.v["cluster.scatter_overhead_ms"] = median(overheads)
	lr.v["cluster.chunks_per_refresh"] = float64(chunksSent) / float64(refreshes)
	lr.v["cluster.bytes_per_refresh"] = float64(wireBytes) / float64(refreshes)
	// The engine counts the segments its scans were handed; Client.Query
	// above scanned once more on the cluster.
	scans := 1.0
	if lr.inst.client != nil {
		scans = 2
	}
	scanned := (after["modelardb_query_segments_total"] - before["modelardb_query_segments_total"]) / scans
	lr.v["storage.scanned_per_matched"] = scanned / float64(max(matched, 1))
	if lr.in.def.name != wIngestBulk {
		lr.stagedMs = median(perRefresh)
	}
	return nil
}

// http times the HTTP front-end against the bare calls beneath it:
// append bodies through the handler against AppendBatch of the same
// points, and the panel rendered as CSV through the handler against
// draining the same cursor.
func (lr *layerReplay) http() error {
	ctx := context.Background()
	op, root := lr.tr.beginOp("replay.httpapi")
	defer lr.tr.end(root, 0)
	size := lr.e.sc.httpPoints
	pts := lr.in.points[:min(len(lr.in.points), 64*size)]
	cfg := lr.in.cfg // in memory, no WAL: the store is not what is timed
	viaHTTP, err := modelardb.Open(cfg)
	if err != nil {
		return err
	}
	defer viaHTTP.Close()
	bare, err := modelardb.Open(cfg)
	if err != nil {
		return err
	}
	defer bare.Close()
	h := httpapi.New(viaHTTP, httpapi.Options{}).Handler()
	for i := 0; i+size <= len(pts) && err == nil; i += size {
		batch := pts[i : i+size]
		body := renderAppend(batch)
		lr.tr.call("httpapi.append", root, op, int64(size), func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/append", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("append via handler: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		})
		if err != nil {
			break
		}
		lr.tr.call("DB.AppendBatch", root, op, int64(size), func() { err = bare.AppendBatch(ctx, batch) })
	}
	if err != nil {
		return fmt.Errorf("httpapi replay: %w", err)
	}
	lr.v["httpapi.append_ns_per_point"] = lr.tr.per("httpapi.append") - lr.tr.per("DB.AppendBatch")

	// Rendering is a per-row cost, so it is timed on the queries that
	// return rows: the panel's row scans plus a scan of the first series,
	// which gives every workload some thousand rows to divide by.
	db := lr.dbs()[0]
	qh := httpapi.New(db, httpapi.Options{}).Handler()
	scans := []string{qspec{view: "DataPoint", rows: true, tids: []core.Tid{1}}.sql()}
	for _, spec := range lr.in.panels[0] {
		if spec.rows {
			scans = append(scans, spec.text)
		}
	}
	for _, sql := range scans {
		var rows int64
		id := lr.tr.begin("DB.QueryRows", root, op)
		cur, err := db.QueryRows(ctx, sql)
		if err != nil {
			return fmt.Errorf("httpapi replay: %w", err)
		}
		for cur.Next() {
			rows++
		}
		err = cur.Err()
		cur.Close()
		lr.tr.end(id, rows)
		if err != nil {
			return fmt.Errorf("httpapi replay: %w", err)
		}
		lr.tr.call("httpapi.query", root, op, rows, func() {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader([]byte(sql)))
			req.Header.Set("Content-Type", "text/plain")
			req.Header.Set("Accept", "text/csv")
			rec := httptest.NewRecorder()
			qh.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("query via handler: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		})
		if err != nil {
			return fmt.Errorf("httpapi replay: %w", err)
		}
	}
	viaD, rows := lr.tr.busy("httpapi.query")
	bareD, _ := lr.tr.busy("DB.QueryRows")
	lr.v["httpapi.render_ns_per_row"] = float64((viaD - bareD).Nanoseconds()) / float64(max(rows, 1))

	if lr.in.def.name == wIngestBulk {
		// One load passes through the WAL, group ingestion (model fitting
		// included) and the store: their busy time per load is what the
		// trace explains of an untraced load.
		points := float64(len(lr.in.points))
		lr.stagedMs = (lr.v["wal.append_ns_per_point"]*points + lr.v["core.ingest_ns_per_point"]*points +
			lr.v["storage.insert_ns_per_segment"]*float64(len(lr.segs))) / 1e6
	}
	return nil
}
