package query

import (
	"sync"

	"modelardb/internal/core"
	"modelardb/internal/models"
	"modelardb/internal/obs"
)

// scanScratch carries the per-scan decode state that would otherwise
// be reallocated for every segment: one defensive copy of each group's
// member list (MetadataCache.TidsOf copies on every call because the
// cache mutates its slices in place) and one reusable model view per
// MID (models.ViewReuser). It also tallies how the scan answered —
// series folded on their model against points reconstructed — in plain
// integers that reach the query's trace once, at release. A scratch is
// owned by a single goroutine for the duration of a scan; the parallel
// paths take one per chunk so concurrent workers never share.
type scanScratch struct {
	members map[core.Gid][]core.Tid
	views   map[models.MID]models.AggView

	foldedSeries  int64
	decodedPoints int64
}

var scanScratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		members: map[core.Gid][]core.Tid{},
		views:   map[models.MID]models.AggView{},
	}
}}

// getScratch returns a pooled scratch. Member snapshots are dropped —
// group membership may have changed since the scratch's last scan —
// but views are kept: ViewInto overwrites a view completely before it
// is read, so stale contents are harmless and their capacity is the
// point of pooling.
func getScratch() *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	clear(sc.members)
	return sc
}

// release adds the scratch's tallies to the trace (nil when untraced)
// and returns it to the pool.
func (sc *scanScratch) release(tr *obs.Trace) {
	tr.AddFoldedSeries(sc.foldedSeries)
	tr.AddDecodedPoints(sc.decodedPoints)
	sc.foldedSeries, sc.decodedPoints = 0, 0
	scanScratchPool.Put(sc)
}

// membersOf returns gid's member Tids, snapshotting from the metadata
// cache once per scan instead of once per segment. The snapshot is
// stable for the scan: it is a private copy, and a scan observing
// membership as of its start is the same consistency already provided
// by the storage snapshot it iterates.
func (sc *scanScratch) membersOf(meta *core.MetadataCache, gid core.Gid) []core.Tid {
	if m, ok := sc.members[gid]; ok {
		return m
	}
	m := meta.TidsOf(gid)
	sc.members[gid] = m
	return m
}

// viewFor decodes a segment's model view. With the segment cache
// enabled it defers to the shared cache — cached views are shared
// across queries and must never be decoded into in place. Without a
// cache it reuses the scratch's per-MID view, so a scan over many
// segments of one model type allocates at most one view.
func (e *Engine) viewFor(sc *scanScratch, seg *core.Segment, nseries int) (models.AggView, error) {
	if e.cache != nil {
		return e.view(seg, nseries)
	}
	v, err := e.reg.ViewInto(sc.views[seg.MID], seg.MID, seg.Params, nseries, seg.Length())
	if err != nil {
		return nil, err
	}
	sc.views[seg.MID] = v
	return v, nil
}
