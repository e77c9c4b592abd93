package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// MetadataCache is the in-memory image of the Time Series table
// (Fig. 6) kept on every node (§3.1): per-series metadata indexed by
// Tid, group membership in both directions, and an index from
// dimension members to the groups containing series with that member,
// which powers the query rewriting of §6.2.
type MetadataCache struct {
	mu sync.RWMutex
	// series is indexed by Tid-1 (Tids start at 1), implementing the
	// array-based hash-join of §6.1.
	series []*TimeSeries
	groups map[Gid][]Tid
	// groupSeries holds each group's member metadata aligned with
	// groups, so SeriesOf hands out one shared slice instead of a copy
	// per scan.
	groupSeries map[Gid][]*TimeSeries
	// memberGids maps dimension\x00level\x00member to the sorted Gids of
	// groups containing a series with that member.
	memberGids map[string][]Gid
}

// NewMetadataCache returns an empty cache.
func NewMetadataCache() *MetadataCache {
	return &MetadataCache{
		groups:      make(map[Gid][]Tid),
		groupSeries: make(map[Gid][]*TimeSeries),
		memberGids:  make(map[string][]Gid),
	}
}

// Add registers a time series. Its Tid must be len(existing)+1 so the
// array index stays dense; the DB layer allocates Tids this way.
func (c *MetadataCache) Add(ts *TimeSeries) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts.Tid != Tid(len(c.series)+1) {
		return fmt.Errorf("core: non-dense Tid %d, want %d", ts.Tid, len(c.series)+1)
	}
	if ts.SI <= 0 {
		return fmt.Errorf("core: series %d has non-positive SI %d", ts.Tid, ts.SI)
	}
	if ts.Scaling == 0 {
		ts.Scaling = 1
	}
	c.series = append(c.series, ts)
	return nil
}

// SetGroup assigns the series to gid and refreshes the indexes. Every
// series must be assigned exactly once, after all Adds.
func (c *MetadataCache) SetGroup(tid Tid, gid Gid) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, err := c.lookup(tid)
	if err != nil {
		return err
	}
	if ts.Gid != 0 {
		return fmt.Errorf("core: series %d already in group %d", tid, ts.Gid)
	}
	ts.Gid = gid
	members := c.groups[gid]
	i, _ := slices.BinarySearch(members, tid) // tid is new: it had no group
	c.groups[gid] = slices.Insert(members, i, tid)
	c.groupSeries[gid] = slices.Insert(c.groupSeries[gid], i, ts)
	for dim, path := range ts.Members {
		for level, member := range path {
			key := memberKey(dim, level+1, member)
			c.memberGids[key] = insertSorted(c.memberGids[key], gid)
		}
	}
	return nil
}

func (c *MetadataCache) lookup(tid Tid) (*TimeSeries, error) {
	if tid < 1 || int(tid) > len(c.series) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTid, tid)
	}
	return c.series[tid-1], nil
}

// Series returns the metadata of tid.
func (c *MetadataCache) Series(tid Tid) (*TimeSeries, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookup(tid)
}

// NumSeries returns the number of registered series.
func (c *MetadataCache) NumSeries() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.series)
}

// AllSeries returns all series metadata ordered by Tid.
func (c *MetadataCache) AllSeries() []*TimeSeries {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TimeSeries, len(c.series))
	copy(out, c.series)
	return out
}

// GidOf returns the group of tid.
func (c *MetadataCache) GidOf(tid Tid) (Gid, error) {
	ts, err := c.Series(tid)
	if err != nil {
		return 0, err
	}
	return ts.Gid, nil
}

// TidsOf returns the sorted member Tids of gid.
func (c *MetadataCache) TidsOf(gid Gid) []Tid {
	c.mu.RLock()
	defer c.mu.RUnlock()
	members := c.groups[gid]
	out := make([]Tid, len(members))
	copy(out, members)
	return out
}

// SeriesOf returns the metadata of gid's members, ordered by Tid: what
// a scan snapshots once per group instead of calling Series once per
// (segment, series). The slice is the cache's own and is read-only; it
// is clipped, so appending to it copies. Groups are only set while the
// catalog is built, before any scan.
func (c *MetadataCache) SeriesOf(gid Gid) []*TimeSeries {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clip(c.groupSeries[gid])
}

// Groups returns all Gids in ascending order.
func (c *MetadataCache) Groups() []Gid {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Gid, 0, len(c.groups))
	for gid := range c.groups {
		out = append(out, gid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GidsForTids maps a set of Tids to the deduplicated, sorted Gids of
// their groups — the Tid->Gid query rewriting of §6.2 (Fig. 11).
func (c *MetadataCache) GidsForTids(tids []Tid) ([]Gid, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var gids []Gid
	for _, tid := range tids {
		ts, err := c.lookup(tid)
		if err != nil {
			return nil, err
		}
		gids = insertSorted(gids, ts.Gid)
	}
	return gids, nil
}

// GidsForMember returns the sorted Gids of groups containing a series
// with the given member — the dimension-member predicate push-down of
// §6.2.
func (c *MetadataCache) GidsForMember(dimension string, level int, member string) []Gid {
	c.mu.RLock()
	defer c.mu.RUnlock()
	gids := c.memberGids[memberKey(dimension, level, member)]
	out := make([]Gid, len(gids))
	copy(out, gids)
	return out
}

// TidsForMember returns the Tids of series with the given member.
func (c *MetadataCache) TidsForMember(dimension string, level int, member string) []Tid {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Tid
	for _, ts := range c.series {
		if path, ok := ts.Members[dimension]; ok && level >= 1 && level <= len(path) && path[level-1] == member {
			out = append(out, ts.Tid)
		}
	}
	return out
}

func memberKey(dimension string, level int, member string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", dimension, level, member)
}

// insertSorted inserts v into the ascending slice s unless s holds it
// already.
func insertSorted[T cmp.Ordered](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}
