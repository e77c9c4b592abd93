package query

import (
	"sync"

	"modelardb/internal/core"
	"modelardb/internal/models"
	"modelardb/internal/obs"
)

// scanScratch carries the per-scan state that would otherwise be
// fetched under the metadata cache's lock, or allocated, for every
// segment: a snapshot of each group's members and their series
// metadata, one reusable model view per MID (models.ViewReuser), and
// the buffers the active-series list and the group key are built in.
// It also tallies what the scan did — segments scanned, series folded
// on their model, points reconstructed — in plain integers that reach
// the query's trace once, at release. A scratch is owned by a single
// goroutine for the duration of a scan — the caller for a pool of one,
// or one pool worker for its whole lifetime — so workers never share.
type scanScratch struct {
	groups map[core.Gid][]*core.TimeSeries
	views  map[models.MID]models.AggView
	active []*core.TimeSeries
	key    []byte

	segments      int64
	foldedSeries  int64
	decodedPoints int64
}

var scanScratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		groups: map[core.Gid][]*core.TimeSeries{},
		views:  map[models.MID]models.AggView{},
	}
}}

// getScratch returns a pooled scratch. Group snapshots are dropped —
// the pool is shared by every engine, and membership may have changed
// since the scratch's last scan — but views and buffers are kept:
// ViewInto overwrites a view completely before it is read, so stale
// contents are harmless and their capacity is the point of pooling.
func getScratch() *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	clear(sc.groups)
	return sc
}

// release adds the scratch's tallies to the trace (nil when untraced)
// and returns it to the pool.
func (sc *scanScratch) release(tr *obs.Trace) {
	tr.AddSegments(sc.segments)
	tr.AddFoldedSeries(sc.foldedSeries)
	tr.AddDecodedPoints(sc.decodedPoints)
	sc.segments, sc.foldedSeries, sc.decodedPoints = 0, 0, 0
	scanScratchPool.Put(sc)
}

// seriesOf returns the series the segment represents, in member order:
// its group's members minus the segment's gaps. The group is
// snapshotted from the metadata cache once per scan instead of once
// per segment, and a scan observing membership as of its start is the
// same consistency the storage snapshot it iterates already provides.
// The result is valid until the next call.
func (sc *scanScratch) seriesOf(meta *core.MetadataCache, seg *core.Segment) []*core.TimeSeries {
	members, ok := sc.groups[seg.Gid]
	if !ok {
		members = meta.SeriesOf(seg.Gid)
		sc.groups[seg.Gid] = members
	}
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
