package query

import (
	"sync"

	"modelardb/internal/core"
	"modelardb/internal/models"
	"modelardb/internal/obs"
	"modelardb/internal/storage"
)

// scanScratch carries the per-scan state that would otherwise be
// fetched under the metadata cache's lock, or allocated, for every
// segment: a snapshot of each group's members and their series
// metadata, the memory the store reads each chunk into
// (storage.ReadScratch), one reusable model view per MID
// (models.ViewReuser), and the buffers the active-series list, the
// group key and a segment's bucket split are built in. For a plan
// whose series conjuncts and group key read only per-series columns
// (plan.perSeries) it caches, per Tid, the conjuncts' verdict for the
// scan and the series' group for the chunk. It also tallies the
// scan's work counts (obs.Count) in plain integers that reach the
// query's trace once, at release. A scratch is owned by a single
// goroutine for the duration of a scan — the caller for a pool of one,
// or one pool worker for its whole lifetime — so workers never share.
type scanScratch struct {
	// read is lent to every chunk this scratch's goroutine reads, so a
	// chunk's segments are valid until its next chunk: nothing keeps a
	// segment past the chunk's fn, and only viewFor reads Params.
	read   storage.ReadScratch
	views  [256]models.AggView // by MID
	memo   memoFolds           // the memo foldsFor last served
	active []*core.TimeSeries
	key    []byte
	runs   []bucketRun
	// pointTS and values hold one (segment, series) run of a row scan's
	// reconstructed points (pointRun).
	pointTS []int64
	values  []float64

	// tids is indexed by Tid and gids by Gid (both dense from 1). scan
	// and chunk number the scratch's scans and aggregate chunks; a slot
	// stamped with an earlier number is stale, so nothing is ever
	// cleared.
	tids        []tidSlot
	gids        []gidSlot
	scan, chunk uint64

	counts [obs.NumCounts]int64
}

// tidSlot is what a perSeries plan resolved for one series: whether
// the series conjuncts keep it (valid while scan matches) and its group
// in the current chunk's map (valid while chunk matches).
type tidSlot struct {
	scan, chunk uint64
	keep        bool
	group       *GroupState
}

// gidSlot is a group's members as this scan snapshotted them (valid
// while scan matches).
type gidSlot struct {
	scan    uint64
	members []*core.TimeSeries
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// getScratch returns a pooled scratch. Advancing scan stales every Tid
// and Gid slot — the pool is shared by every engine, and membership may
// have changed since the scratch's last scan — but views and buffers
// are kept: ViewInto overwrites a view, and a read every byte and
// segment it returns, before they are read, so stale contents are
// harmless and their capacity is the point of pooling.
func getScratch() *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	sc.scan++
	return sc
}

// release adds the scratch's tallies to the trace (nil when untraced)
// and returns it to the pool, without read memory that only a huge
// explicit chunk size needed (storage.ReadScratch.Trim).
func (sc *scanScratch) release(tr *obs.Trace) {
	for c, n := range sc.counts {
		tr.Add(obs.Count(c), n)
	}
	sc.counts = [obs.NumCounts]int64{}
	sc.read.Trim()
	scanScratchPool.Put(sc)
}

// seriesOf returns the series the segment represents, in member order:
// its group's members minus the segment's gaps. The group is
// snapshotted from the metadata cache once per scan instead of once
// per segment, and a scan observing membership as of its start is the
// same consistency the storage snapshot it iterates already provides.
// The result is valid until the next call.
func (sc *scanScratch) seriesOf(meta *core.MetadataCache, seg *core.Segment) []*core.TimeSeries {
	if n := int(seg.Gid) + 1; n > len(sc.gids) {
		sc.gids = append(sc.gids, make([]gidSlot, n-len(sc.gids))...)
	}
	g := &sc.gids[seg.Gid]
	if g.scan != sc.scan {
		g.scan, g.members = sc.scan, meta.SeriesOf(seg.Gid)
	}
	members := g.members
	if len(seg.GapTids) == 0 {
		return members
	}
	sc.active = sc.active[:0]
	gaps := seg.GapTids
	for _, ts := range members {
		for len(gaps) > 0 && gaps[0] < ts.Tid {
			gaps = gaps[1:]
		}
		if len(gaps) == 0 || gaps[0] != ts.Tid {
			sc.active = append(sc.active, ts)
		}
	}
	return sc.active
}

// slot returns tid's cache slot, growing the table on first sight.
func (sc *scanScratch) slot(tid core.Tid) *tidSlot {
	if n := int(tid) + 1; n > len(sc.tids) {
		sc.tids = append(sc.tids, make([]tidSlot, n-len(sc.tids))...)
	}
	return &sc.tids[tid]
}

// keepSeries reports whether the plan's series conjuncts keep row's
// (segment, series). A perSeries plan evaluates them once per (scan,
// Tid); any other plan reads segment columns and evaluates them here
// for every row.
func (sc *scanScratch) keepSeries(p *plan, row *logicalRow) bool {
	if !p.perSeries {
		return p.where.series.eval(row)
	}
	s := sc.slot(row.ts.Tid)
	if s.scan != sc.scan {
		s.scan, s.keep = sc.scan, p.where.series.eval(row)
	}
	return s.keep
}

// groupOf returns row's group in the chunk's map, creating it on first
// sight. A perSeries plan renders and looks up the key once per
// (chunk, Tid); any other plan's key reads segment or point columns and
// is rendered here for every call.
func (sc *scanScratch) groupOf(p *plan, groups map[string]*GroupState, row *logicalRow) *GroupState {
	if !p.perSeries {
		sc.key = p.appendGroupKey(sc.key[:0], row)
		return p.groupFor(groups, sc.key, row)
	}
	s := sc.slot(row.ts.Tid)
	if s.chunk != sc.chunk {
		sc.key = p.appendGroupKey(sc.key[:0], row)
		s.chunk, s.group = sc.chunk, p.groupFor(groups, sc.key, row)
	}
	return s.group
}

// viewFor decodes a segment's model view into the scratch's view of
// that MID, so a scan over many segments of one model type allocates
// at most one view.
func (e *Engine) viewFor(sc *scanScratch, seg *core.Segment, nseries int) (models.AggView, error) {
	v, err := e.reg.ViewInto(sc.views[seg.MID], seg.MID, seg.Params, nseries, seg.Length())
	if err != nil {
		return nil, err
	}
	sc.views[seg.MID] = v
	return v, nil
}

// foldsFor returns what a fold of seg's n view positions reads. A fold
// of the whole range (whole) reads the segment's memo slot once a query
// has filled it, and decodes nothing. Otherwise it decodes the view as
// viewFor does and counts the values the view decoded (view_values); a
// view that decoded some fills the slot when the fold is whole, with
// what its SumRange, MinRange and MaxRange return over the whole range,
// so the memo serves the same float64 values bit for bit.
func (e *Engine) foldsFor(sc *scanScratch, seg *core.Segment, n int, whole bool) (rangeFolder, error) {
	if whole {
		if folds := seg.Memo.Load(n); folds != nil {
			sc.memo = memoFolds{folds: folds, n: n}
			return &sc.memo, nil
		}
	}
	view, err := e.viewFor(sc, seg, n)
	if err != nil {
		return nil, err
	}
	d, ok := view.(models.ValueDecoder)
	if !ok {
		return view, nil
	}
	decoded := d.DecodedValues()
	sc.counts[obs.ViewValues] += int64(decoded)
	if whole && decoded > 0 && seg.Memo != nil {
		last := seg.Length() - 1
		folds := make([]float64, 3*n)
		for s := range n {
			folds[s], folds[n+s], folds[2*n+s] = view.SumRange(s, 0, last), view.MinRange(s, 0, last), view.MaxRange(s, 0, last)
		}
		seg.Memo.Store(folds)
	}
	return view, nil
}
