// Package query implements ModelarDB+ query processing (§6): the
// Segment View and Data Point View, rewriting of Tids and dimension
// members to Gids for predicate push-down, simple aggregates executed
// directly on models (Algorithm 5) and multi-dimensional aggregates in
// the time dimension computed from segment start and end times alone
// (Algorithm 6). Aggregate computation is split into mergeable partial
// states so the same code path serves single-node and distributed
// execution (initialize/iterate/merge/finalize).
package query

import (
	"cmp"
	"math"
	"slices"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/sqlparse"
)

// ScalarState is the partial state of one distributive or algebraic
// aggregate [Gray et al.]: COUNT, MIN, MAX, SUM and AVG all finalize
// from these four fields, and two states merge by addition, so worker
// results combine exactly (§6.2's initialize/iterate/finalize split).
type ScalarState struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// NewScalarState returns an empty state.
func NewScalarState() ScalarState {
	return ScalarState{Min: math.Inf(1), Max: math.Inf(-1)}
}

// AddPoint folds one value into the state.
func (s *ScalarState) AddPoint(v float64) {
	s.Count++
	s.Sum += v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
}

// AddRange folds a pre-aggregated range (count points with the given
// sum, min and max), the segment fast path of Algorithm 5.
func (s *ScalarState) AddRange(count int64, sum, mn, mx float64) {
	s.Count += count
	s.Sum += sum
	if mn < s.Min {
		s.Min = mn
	}
	if mx > s.Max {
		s.Max = mx
	}
}

// Merge folds another state into s (the master-side merge of §6.2).
func (s *ScalarState) Merge(o ScalarState) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Finalize computes the aggregate's value. ok is false for an empty
// state (SQL semantics: no rows).
func (s *ScalarState) Finalize(kind sqlparse.AggKind) (v float64, ok bool) {
	if s.Count == 0 {
		return 0, false
	}
	switch kind {
	case sqlparse.AggCount:
		return float64(s.Count), true
	case sqlparse.AggSum:
		return s.Sum, true
	case sqlparse.AggAvg:
		return s.Sum / float64(s.Count), true
	case sqlparse.AggMin:
		return s.Min, true
	case sqlparse.AggMax:
		return s.Max, true
	default:
		return 0, false
	}
}

// CubeCell is one time bucket of a roll-up.
type CubeCell struct {
	Bucket int64
	ScalarState
}

// CubeState is the partial state of a CUBE_* roll-up: one scalar state
// per time bucket, strictly ascending by bucket. A sorted slice instead
// of a hash map is the dense side of the cube storage trade: a series'
// buckets arrive in ascending order, so adding is an append, merging a
// linear walk and finalizing needs no sort.
type CubeState []CubeCell

// Add folds a pre-aggregated range into a bucket.
func (c *CubeState) Add(bucket int64, count int64, sum, mn, mx float64) {
	c.at(bucket).AddRange(count, sum, mn, mx)
}

// at returns bucket's state, inserting an empty one in bucket order
// when absent. The last bucket is checked first: the buckets of one
// segment, and of consecutive segments of one series, ascend.
func (c *CubeState) at(bucket int64) *ScalarState {
	s := *c
	i := len(s)
	if i > 0 && s[i-1].Bucket == bucket {
		return &s[i-1].ScalarState
	}
	if i > 0 && s[i-1].Bucket > bucket {
		var found bool
		i, found = slices.BinarySearchFunc(s, bucket, func(cell CubeCell, b int64) int { return cmp.Compare(cell.Bucket, b) })
		if found {
			return &s[i].ScalarState
		}
	}
	s = slices.Insert(s, i, CubeCell{Bucket: bucket, ScalarState: NewScalarState()})
	*c = s
	return &s[i].ScalarState
}

// Merge folds another cube state into c by a linear merge of the two
// bucket orders; o is only read.
func (c *CubeState) Merge(o CubeState) {
	s := *c
	if len(s) == 0 || len(o) == 0 || o[0].Bucket >= s[len(s)-1].Bucket {
		// o continues c, as the chunks of one series do: every cell
		// lands on c's last bucket or appends.
		for _, cell := range o {
			c.at(cell.Bucket).Merge(cell.ScalarState)
		}
		return
	}
	out := make(CubeState, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) || j < len(o) {
		switch {
		case j == len(o) || i < len(s) && s[i].Bucket < o[j].Bucket:
			out = append(out, s[i])
			i++
		case i == len(s) || o[j].Bucket < s[i].Bucket:
			out = append(out, CubeCell{Bucket: o[j].Bucket, ScalarState: NewScalarState()})
			out[len(out)-1].Merge(o[j].ScalarState)
			j++
		default:
			s[i].Merge(o[j].ScalarState)
			out = append(out, s[i])
			i++
			j++
		}
	}
	*c = out
}

// Widths of the levels whose buckets are fixed spans of Unix time: UTC
// has no leap seconds in Unix milliseconds, so a minute, hour and day
// bucket is floor arithmetic, no calendar needed.
const (
	msMinute = int64(time.Minute / time.Millisecond)
	msHour   = int64(time.Hour / time.Millisecond)
	msDay    = 24 * msHour
)

// floorDiv is a / b rounded toward negative infinity, for b > 0, so
// timestamps before 1970 fall into the bucket that starts before them.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// bucketOf maps a timestamp to its bucket key at the given level and
// returns the first timestamp of the next bucket, the boundary
// Algorithm 6 iterates to. Absolute levels use the bucket's start time
// in Unix milliseconds as the key; cyclic levels (HourOfDay, ...) use
// the cycle index. All calendar math is UTC.
func bucketOf(level sqlparse.TimeLevel, ts int64) (key int64, nextBoundary int64) {
	switch level {
	case sqlparse.LevelMinute:
		start := floorDiv(ts, msMinute) * msMinute
		return start, start + msMinute
	case sqlparse.LevelHour:
		start := floorDiv(ts, msHour) * msHour
		return start, start + msHour
	case sqlparse.LevelDay:
		start := floorDiv(ts, msDay) * msDay
		return start, start + msDay
	case sqlparse.LevelHourOfDay:
		hour := floorDiv(ts, msHour)
		return hour - floorDiv(ts, msDay)*24, (hour + 1) * msHour
	case sqlparse.LevelDayOfWeek:
		// 1970-01-01 was a Thursday (time.Weekday 4).
		day := floorDiv(ts, msDay)
		return (day%7 + 7 + 4) % 7, (day + 1) * msDay
	}
	t := time.UnixMilli(ts).UTC()
	switch level {
	case sqlparse.LevelMonth:
		start := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
		return start.UnixMilli(), start.AddDate(0, 1, 0).UnixMilli()
	case sqlparse.LevelYear:
		start := time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
		return start.UnixMilli(), start.AddDate(1, 0, 0).UnixMilli()
	case sqlparse.LevelDayOfMonth:
		start := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
		return int64(t.Day()), start.AddDate(0, 0, 1).UnixMilli()
	case sqlparse.LevelMonthOfYear:
		start := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
		return int64(t.Month()), start.AddDate(0, 1, 0).UnixMilli()
	default:
		return 0, math.MaxInt64
	}
}

// bucketRun is one bucket's share [first, last] of a segment's grid
// indices.
type bucketRun struct {
	bucket      int64
	first, last int
}

// appendBucketRuns appends the split of seg's grid indices [i0, i1] at
// the level's bucket boundaries: Algorithm 6's walk of the segment
// interval one time-hierarchy bucket at a time. It depends on the
// segment alone, so a scan computes it once per segment and every
// series and roll-up item of the segment shares it.
func appendBucketRuns(dst []bucketRun, level sqlparse.TimeLevel, seg *core.Segment, i0, i1 int) []bucketRun {
	for idx := i0; idx <= i1; {
		bucket, boundary := bucketOf(level, seg.TimestampAt(idx))
		// Last grid index strictly before the next bucket boundary;
		// TimestampAt(idx) < boundary guarantees progress.
		last := i1
		if boundary <= seg.EndTime {
			if lastInBucket := int((boundary - 1 - seg.StartTime) / seg.SI); lastInBucket < last {
				last = lastInBucket
			}
		}
		dst = append(dst, bucketRun{bucket: bucket, first: idx, last: last})
		idx = last + 1
	}
	return dst
}
