package core

import (
	"fmt"
	"sort"
)

// IngestorConfig configures a GroupIngestor.
type IngestorConfig struct {
	Generator GeneratorConfig
	// SplitFraction f triggers a split when a segment's compression
	// ratio falls below average/f (§4.2; Table 1 default is 10).
	SplitFraction float64
	// DisableSplitting turns the dynamic splitting of §4.2 off.
	DisableSplitting bool
}

// DefaultSplitFraction matches Table 1's "Dynamic Split Fraction 10".
const DefaultSplitFraction = 10

// joinAfterSegments is the number of segments a split group must emit
// before its first join attempt; it doubles after every failed attempt
// (§4.2).
const joinAfterSegments = 1

// GroupIngestor ingests the data points of one time series group: it
// assembles points into sampling-interval ticks, tracks gaps by
// starting new segments when the set of active series changes (Fig. 5)
// and maintains the dynamically split sub-groups of §4.2, each with
// its own segment generator.
type GroupIngestor struct {
	cfg     IngestorConfig
	gid     Gid
	si      int64
	members []Tid // sorted; the full group

	phase   int64 // ts mod si; fixed by the first data point
	started bool
	curTick int64
	// The tick being assembled, indexed by each member's position.
	pos      map[Tid]int
	curVals  []float32
	curHas   []bool
	curCount int

	parts []*part
}

// part is one dynamically split sub-group (SG1..SGn in Fig. 8; a
// single part holding all members corresponds to SG0).
type part struct {
	members []Tid // sorted subset of the group
	gen     *SegmentGenerator

	isSplit           bool
	segmentsSinceMark int
	joinEvery         int

	// Reused per-tick scratch buffers.
	activeScratch []Tid
	rowScratch    []float32
}

// NewGroupIngestor returns an ingestor for group gid with the given
// sorted member Tids, all sharing sampling interval si (Definition 8).
func NewGroupIngestor(cfg IngestorConfig, gid Gid, si int64, members []Tid) *GroupIngestor {
	if cfg.SplitFraction <= 0 {
		cfg.SplitFraction = DefaultSplitFraction
	}
	ms := make([]Tid, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	g := &GroupIngestor{
		cfg:     cfg,
		gid:     gid,
		si:      si,
		members: ms,
		pos:     make(map[Tid]int, len(ms)),
		curVals: make([]float32, len(ms)),
		curHas:  make([]bool, len(ms)),
	}
	for i, tid := range ms {
		g.pos[tid] = i
	}
	g.parts = []*part{{members: ms, joinEvery: joinAfterSegments}}
	return g
}

// Gid returns the ingestor's group id.
func (g *GroupIngestor) Gid() Gid { return g.gid }

// NumParts returns the current number of dynamically split sub-groups.
func (g *GroupIngestor) NumParts() int { return len(g.parts) }

// Append adds one data point. Points must arrive in non-decreasing
// tick order across the whole group; a tick is closed, and its models
// updated, when the first point of a later tick arrives.
func (g *GroupIngestor) Append(tid Tid, ts int64, value float32) error {
	if !g.started {
		g.phase = ((ts % g.si) + g.si) % g.si
		g.started = true
		g.curTick, _ = tickIndex(ts, g.phase, g.si)
	}
	tick, err := tickIndex(ts, g.phase, g.si)
	if err != nil {
		return err
	}
	switch {
	case tick < g.curTick:
		return fmt.Errorf("%w: tid=%d ts=%d before current tick", ErrOutOfOrder, tid, ts)
	case tick > g.curTick:
		if err := g.closeTick(); err != nil {
			return err
		}
		if tick > g.curTick+1 {
			// A run of ticks with no data for any series: a gap for the
			// whole group. Flush so the next segments start fresh.
			if err := g.flushParts(); err != nil {
				return err
			}
		}
		g.curTick = tick
	}
	i, ok := g.pos[tid]
	if !ok {
		return fmt.Errorf("%w: tid=%d not in group %d", ErrUnknownTid, tid, g.gid)
	}
	if g.curHas[i] {
		return fmt.Errorf("%w: tid=%d ts=%d duplicate value in tick", ErrOutOfOrder, tid, ts)
	}
	g.curVals[i] = value
	g.curHas[i] = true
	g.curCount++
	return nil
}

// Flush closes the tick being assembled and emits segments for all
// buffered data points.
func (g *GroupIngestor) Flush() error {
	if err := g.closeTick(); err != nil {
		return err
	}
	return g.flushParts()
}

func (g *GroupIngestor) flushParts() error {
	for _, p := range g.parts {
		if p.gen != nil {
			if err := p.gen.Flush(); err != nil {
				return err
			}
			p.gen = nil
		}
	}
	return nil
}

// closeTick feeds the assembled tick into every part, then runs the
// split and join checks of §4.2.
func (g *GroupIngestor) closeTick() error {
	if !g.started || g.curCount == 0 {
		g.resetTick()
		return nil
	}
	ts := g.phase + g.curTick*g.si
	for _, p := range g.parts {
		if err := g.feedPart(p, ts); err != nil {
			return err
		}
	}
	g.resetTick()
	if !g.cfg.DisableSplitting {
		if err := g.checkSplits(); err != nil {
			return err
		}
		if err := g.checkJoins(); err != nil {
			return err
		}
	}
	return nil
}

func (g *GroupIngestor) resetTick() {
	for i := range g.curHas {
		g.curHas[i] = false
	}
	g.curCount = 0
}

// feedPart routes the tick's values for one part into its generator,
// recreating the generator when the active series set changed (Fig. 5).
func (g *GroupIngestor) feedPart(p *part, ts int64) error {
	active := p.activeScratch[:0]
	row := p.rowScratch[:0]
	for _, tid := range p.members {
		if i := g.pos[tid]; g.curHas[i] {
			active = append(active, tid)
			row = append(row, g.curVals[i])
		}
	}
	p.activeScratch, p.rowScratch = active, row
	if p.gen != nil && !tidsEqual(p.gen.Active(), active) {
		if err := p.gen.Flush(); err != nil {
			return err
		}
		p.gen = nil
	}
	if len(active) == 0 {
		return nil
	}
	if p.gen == nil {
		gaps := tidsDiff(g.members, active)
		members := make([]Tid, len(active))
		copy(members, active)
		p.gen = NewSegmentGenerator(g.cfg.Generator, g.gid, g.si, ts, members, gaps)
	}
	return p.gen.AppendTick(row)
}

// checkSplits applies the splitting heuristics of §4.2: a part whose
// newest segment compressed much worse than its average, and which
// still has buffered data points, is re-partitioned by Algorithm 3.
func (g *GroupIngestor) checkSplits() error {
	for idx := 0; idx < len(g.parts); idx++ {
		p := g.parts[idx]
		if p.gen == nil {
			continue
		}
		stats, emitted := p.gen.TakeEmit()
		if !emitted {
			continue
		}
		if p.isSplit {
			p.segmentsSinceMark++
		}
		if len(p.members) < 2 {
			continue
		}
		avg := p.gen.AverageRatio()
		if stats.Ratio >= avg/g.cfg.SplitFraction || p.gen.BufferLen() == 0 {
			continue
		}
		active := p.gen.Active()
		if len(active) < 2 {
			continue
		}
		clusters := splitClusters(p.gen.Buffer(), len(active), g.cfg.Generator.Bound)
		gapMembers := tidsDiff(p.members, active)
		if len(clusters) < 2 && len(gapMembers) == 0 {
			continue
		}
		newParts, err := g.buildSplitParts(p, clusters, gapMembers)
		if err != nil {
			return err
		}
		g.parts = append(g.parts[:idx], append(newParts, g.parts[idx+1:]...)...)
		idx += len(newParts) - 1
	}
	return nil
}

// buildSplitParts creates a part per cluster, replaying the old
// generator's buffered ticks into each new generator. Series in a gap
// are grouped together with no generator (§4.2).
func (g *GroupIngestor) buildSplitParts(p *part, clusters [][]int, gapMembers []Tid) ([]*part, error) {
	active := p.gen.Active()
	buf, width := p.gen.Buffer(), len(active)
	start := p.gen.BufferStartTime()
	var out []*part
	for _, cluster := range clusters {
		members := make([]Tid, 0, len(cluster))
		for _, pos := range cluster {
			members = append(members, active[pos])
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		np := &part{
			members:   members,
			isSplit:   true,
			joinEvery: joinAfterSegments,
		}
		gaps := tidsDiff(g.members, members)
		np.gen = NewSegmentGenerator(g.cfg.Generator, g.gid, g.si, start, members, gaps)
		row := make([]float32, len(cluster))
		for r := 0; r < len(buf); r += width {
			for i, pos := range cluster {
				row[i] = buf[r+pos]
			}
			if err := np.gen.AppendTick(row); err != nil {
				return nil, err
			}
		}
		np.gen.TakeEmit() // replay emissions do not re-trigger splitting
		out = append(out, np)
	}
	if len(gapMembers) > 0 {
		out = append(out, &part{members: gapMembers, isSplit: true, joinEvery: joinAfterSegments})
	}
	return out, nil
}

// checkJoins applies Algorithm 4: split parts that emitted enough
// segments attempt to merge with another part whose recent buffered
// values are within the double error bound; failed attempts double the
// required segment count.
func (g *GroupIngestor) checkJoins() error {
	if len(g.parts) < 2 {
		return nil
	}
	for i := 0; i < len(g.parts); i++ {
		p := g.parts[i]
		if !p.isSplit || p.gen == nil || p.segmentsSinceMark < p.joinEvery {
			continue
		}
		dpr1 := column(p.gen.Buffer(), len(p.gen.Active()), 0)
		merged := false
		for j := 0; j < len(g.parts) && !merged; j++ {
			q := g.parts[j]
			if q == p || q.gen == nil {
				continue
			}
			dpr2 := column(q.gen.Buffer(), len(q.gen.Active()), 0)
			if !reverseCompatible(dpr1, dpr2, g.cfg.Generator.Bound) {
				continue
			}
			if err := p.gen.Flush(); err != nil {
				return err
			}
			if err := q.gen.Flush(); err != nil {
				return err
			}
			members := tidsUnion(p.members, q.members)
			np := &part{
				members:   members,
				isSplit:   !tidsEqual(members, g.members),
				joinEvery: joinAfterSegments,
			}
			// Remove both old parts, insert the merged one.
			keep := g.parts[:0]
			for _, r := range g.parts {
				if r != p && r != q {
					keep = append(keep, r)
				}
			}
			g.parts = append(keep, np)
			merged = true
			i = -1 // restart the scan over the mutated slice
		}
		if !merged {
			p.joinEvery *= 2
			p.segmentsSinceMark = 0
		}
	}
	return nil
}

func tidsEqual(a, b []Tid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tidsDiff returns the members of a not in b; both must be sorted.
func tidsDiff(a, b []Tid) []Tid {
	var out []Tid
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i < len(b) && b[i] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// tidsUnion merges two sorted Tid slices.
func tidsUnion(a, b []Tid) []Tid {
	out := make([]Tid, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
