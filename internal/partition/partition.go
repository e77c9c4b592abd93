package partition

import (
	"fmt"
	"sort"

	"modelardb/internal/core"
	"modelardb/internal/dims"
)

// Partitioner groups time series by the user-defined correlation
// clauses (§3.1's Time Series Partitioner component).
type Partitioner struct {
	schema  *dims.Schema
	clauses []Clause
}

// New returns a partitioner over the schema with the given clauses.
// With no clauses every series forms its own group, which is exactly
// ModelarDBv1's behaviour (pure multi-model compression).
func New(schema *dims.Schema, clauses ...Clause) *Partitioner {
	return &Partitioner{schema: schema, clauses: clauses}
}

// ParseAll parses several clause strings.
func ParseAll(schema *dims.Schema, texts ...string) ([]Clause, error) {
	clauses := make([]Clause, 0, len(texts))
	for _, t := range texts {
		c, err := ParseClause(schema, t)
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
	}
	return clauses, nil
}

// group is the working state of Algorithm 1: the series of one group
// plus, per dimension, the meet (common prefix) of their member paths,
// which makes the group-level LCA of Algorithm 2 incremental.
type group struct {
	series []*core.TimeSeries
	meets  map[string][]string
}

func newGroup(ts *core.TimeSeries, schema *dims.Schema) *group {
	g := &group{series: []*core.TimeSeries{ts}, meets: make(map[string][]string)}
	for _, d := range schema.Dimensions() {
		g.meets[d.Name] = ts.Members[d.Name]
	}
	return g
}

func (g *group) absorb(o *group) {
	g.series = append(g.series, o.series...)
	for name, meet := range g.meets {
		g.meets[name] = dims.MeetPath(meet, o.meets[name])
	}
}

// Group partitions the series into groups of correlated series using
// Algorithm 1: starting from singleton groups, pairs of groups are
// merged whenever any clause holds, until a fixpoint. The returned
// groups are sorted by their smallest Tid, members sorted by Tid.
// Series with different sampling intervals are never grouped
// (Definition 8).
func (p *Partitioner) Group(series []*core.TimeSeries) ([][]core.Tid, error) {
	if err := p.validate(series); err != nil {
		return nil, err
	}
	if p.allBucketable() {
		// Member/LCA-only clauses define an equality relation, so the
		// O(n) bucketed path produces the same fixpoint (proven
		// equivalent by TestBucketedMatchesFixpoint).
		return p.groupBucketed(series), nil
	}
	return p.fixpoint(series), nil
}

// GroupFixpoint always uses Algorithm 1's pairwise fixpoint, exposed
// so tests can prove the bucketed fast path equivalent.
func (p *Partitioner) GroupFixpoint(series []*core.TimeSeries) ([][]core.Tid, error) {
	if err := p.validate(series); err != nil {
		return nil, err
	}
	return p.fixpoint(series), nil
}

// validate checks every series' members against the schema.
func (p *Partitioner) validate(series []*core.TimeSeries) error {
	for _, ts := range series {
		if err := p.schema.Validate(ts.Members); err != nil {
			return fmt.Errorf("partition: series %d: %w", ts.Tid, err)
		}
	}
	return nil
}

// fixpoint is Algorithm 1: starting from singleton groups, it merges
// pairs of correlated groups until no pair is left (lines 7-15).
func (p *Partitioner) fixpoint(series []*core.TimeSeries) [][]core.Tid {
	groups := make([]*group, 0, len(series))
	for _, ts := range series {
		groups = append(groups, newGroup(ts, p.schema))
	}
	for modified := true; modified; {
		modified = false
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				if !p.correlated(groups[i], groups[j]) {
					continue
				}
				groups[i].absorb(groups[j])
				groups = append(groups[:j], groups[j+1:]...)
				modified = true
				j--
			}
		}
	}
	out := make([][]core.Tid, 0, len(groups))
	for _, g := range groups {
		tids := make([]core.Tid, 0, len(g.series))
		for _, ts := range g.series {
			tids = append(tids, ts.Tid)
		}
		out = append(out, sortTids(tids))
	}
	return sortGroups(out)
}

func sortTids(tids []core.Tid) []core.Tid {
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	return tids
}

func sortGroups(groups [][]core.Tid) [][]core.Tid {
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// correlated reports whether any clause considers the groups
// correlated (clauses are OR'ed; primitives within a clause AND'ed).
func (p *Partitioner) correlated(g1, g2 *group) bool {
	if !sameSamplingInterval(g1, g2) {
		return false
	}
	for i := range p.clauses {
		if p.clauseHolds(&p.clauses[i], g1, g2) {
			return true
		}
	}
	return false
}

func sameSamplingInterval(g1, g2 *group) bool {
	return g1.series[0].SI == g2.series[0].SI
}

func (p *Partitioner) clauseHolds(c *Clause, g1, g2 *group) bool {
	if c.empty() {
		return false
	}
	if len(c.Sources) > 0 && !sourcesHold(c, g1, g2) {
		return false
	}
	for _, m := range c.Members {
		if !memberHolds(m, g1) || !memberHolds(m, g2) {
			return false
		}
	}
	for _, l := range c.LCAs {
		if !p.lcaHolds(l, g1, g2) {
			return false
		}
	}
	if c.HasDistance && !p.distanceHolds(c, g1, g2) {
		return false
	}
	return true
}

// sourcesHold requires every series of both groups to be one of the
// clause's sources.
func sourcesHold(c *Clause, groups ...*group) bool {
	for _, g := range groups {
		for _, ts := range g.series {
			found := false
			for _, s := range c.Sources {
				if ts.Source == s {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// memberHolds requires every series of the group to have the member at
// the level.
func memberHolds(m MemberPredicate, g *group) bool {
	for _, ts := range g.series {
		if ts.Member(m.Dimension, m.Level) != m.Member {
			return false
		}
	}
	return true
}

// lcaHolds checks an LCA requirement between two groups: the LCA level
// of all series in both groups must be at least the required level,
// where 0 means all levels and -n all but the lowest n levels (§4.1).
func (p *Partitioner) lcaHolds(l LCARequirement, g1, g2 *group) bool {
	d, ok := p.schema.Dimension(l.Dimension)
	if !ok {
		return false
	}
	required := l.Level
	if required <= 0 {
		required = d.Height() + required
	}
	return dims.LCALevel(g1.meets[l.Dimension], g2.meets[l.Dimension]) >= required
}

// distanceHolds is Algorithm 2: the weighted, normalized dimension
// distance between the groups is compared to the clause's threshold.
func (p *Partitioner) distanceHolds(c *Clause, g1, g2 *group) bool {
	return p.Distance(c, g1.meets, g2.meets) <= c.Distance
}

// Distance computes Algorithm 2's normalized distance between two sets
// of per-dimension member paths (the groups' meets).
func (p *Partitioner) Distance(c *Clause, meets1, meets2 map[string][]string) float64 {
	sum := 0.0
	dimensions := p.schema.Dimensions()
	for _, d := range dimensions {
		ancestor := dims.LCALevel(meets1[d.Name], meets2[d.Name])
		height := d.Height()
		weight := 1.0
		if c != nil && c.Weights != nil {
			if w, ok := c.Weights[d.Name]; ok {
				weight = w
			}
		}
		distance := float64(height-ancestor) / float64(height)
		sum += weight * distance
	}
	normalized := sum / float64(len(dimensions))
	if normalized > 1 {
		normalized = 1
	}
	return normalized
}

// Scalings returns the scaling constant for every series, combining
// the per-source and per-member scaling primitives of all clauses;
// series without a rule scale by 1.
func (p *Partitioner) Scalings(series []*core.TimeSeries) map[core.Tid]float64 {
	out := make(map[core.Tid]float64, len(series))
	for _, ts := range series {
		factor := 1.0
		for i := range p.clauses {
			c := &p.clauses[i]
			for _, rule := range c.ScalingByMember {
				if ts.Member(rule.Dimension, rule.Level) == rule.Member {
					factor = rule.Factor
				}
			}
			if f, ok := c.ScalingBySource[ts.Source]; ok {
				factor = f
			}
		}
		out[ts.Tid] = factor
	}
	return out
}
