package core

import (
	"fmt"
	"math"

	"modelardb/internal/models"
)

// GeneratorConfig configures segment generation for a group.
type GeneratorConfig struct {
	// Registry supplies the model types in the order they are tried
	// during ingestion (§3.2 step ii).
	Registry *models.Registry
	// Bound is the user-defined error bound (possibly zero).
	Bound models.ErrorBound
	// LengthLimit caps the sampling intervals one model may represent
	// (Table 1: "Model Length Limit 50").
	LengthLimit int
	// OnSegment receives every emitted segment.
	OnSegment func(*Segment) error
}

// DefaultLengthLimit matches the paper's evaluated configuration.
const DefaultLengthLimit = 50

// EmitStats summarizes one emitted segment for the dynamic-splitting
// heuristics of §4.2.
type EmitStats struct {
	// Ratio is the compression ratio of the emitted segment:
	// uncompressed data point bytes divided by stored segment bytes.
	Ratio float64
	// Length is the number of sampling intervals emitted.
	Length int
}

// SegmentGenerator fits the shipped and user-defined models to the
// buffered data points of a fixed set of active series and emits the
// model with the best compression ratio as a segment (§3.2 steps
// i-iv). A generator's active series set never changes; gap handling
// (Fig. 5) and group splitting create new generators instead.
type SegmentGenerator struct {
	cfg    GeneratorConfig
	gid    Gid
	si     int64
	active []Tid // sorted; the series represented by every segment
	gaps   []Tid // sorted; group members not represented (in gap)

	startTime int64 // timestamp of buffer[0]
	buffer    [][]float32

	types      []models.ModelType
	tryIdx     int
	cur        models.Model
	fitted     int // buffer ticks accepted by cur
	candidates []genCandidate
	// views holds one verify view per model type, indexed like types,
	// that each emit decodes into instead of allocating a fresh one.
	views []models.AggView

	emitted      int
	sumRatio     float64
	lastEmit     EmitStats
	emittedSince bool // a segment was emitted since the last TickDone
}

type genCandidate struct {
	typ   int // index into types
	model models.Model
}

// NewSegmentGenerator returns a generator for the active series of
// group gid starting at startTime. active and gaps must be sorted and
// disjoint; together they are the group's members.
func NewSegmentGenerator(cfg GeneratorConfig, gid Gid, si int64, startTime int64, active, gaps []Tid) *SegmentGenerator {
	if cfg.LengthLimit <= 0 {
		cfg.LengthLimit = DefaultLengthLimit
	}
	types := cfg.Registry.Types()
	return &SegmentGenerator{
		cfg:       cfg,
		gid:       gid,
		si:        si,
		active:    active,
		gaps:      gaps,
		startTime: startTime,
		types:     types,
		views:     make([]models.AggView, len(types)),
	}
}

// Active returns the generator's active series.
func (g *SegmentGenerator) Active() []Tid { return g.active }

// BufferLen returns the number of buffered, un-emitted ticks.
func (g *SegmentGenerator) BufferLen() int { return len(g.buffer) }

// BufferRows returns the buffered, un-emitted ticks; rows are indexed
// by [tick][series position]. The dynamic-splitting Algorithm 3 reads
// these. The returned slices alias the buffer and must not be mutated.
func (g *SegmentGenerator) BufferRows() [][]float32 { return g.buffer }

// BufferStartTime returns the timestamp of the first buffered tick.
func (g *SegmentGenerator) BufferStartTime() int64 { return g.startTime }

// AppendTick adds one sampling interval of values, ordered to match
// the active series, and fits models, emitting segments when every
// model type is exhausted.
func (g *SegmentGenerator) AppendTick(values []float32) error {
	if len(values) != len(g.active) {
		return fmt.Errorf("core: tick has %d values for %d active series", len(values), len(g.active))
	}
	row := make([]float32, len(values))
	copy(row, values)
	g.buffer = append(g.buffer, row)
	return g.fitTail()
}

// fitTail restores the invariant that the current model represents the
// whole buffer, advancing through model types and emitting segments as
// needed.
func (g *SegmentGenerator) fitTail() error {
	for {
		if g.cur == nil {
			if g.tryIdx >= len(g.types) {
				if err := g.emitBest(); err != nil {
					return err
				}
				continue
			}
			g.cur = g.types[g.tryIdx].New(g.cfg.Bound, len(g.active))
			g.fitted = 0
		}
		for g.fitted < len(g.buffer) {
			if g.cur.Length() >= g.cfg.LengthLimit || !g.cur.Append(g.buffer[g.fitted]) {
				g.candidates = append(g.candidates, genCandidate{g.tryIdx, g.cur})
				g.cur = nil
				g.tryIdx++
				break
			}
			g.fitted++
		}
		if g.fitted == len(g.buffer) && g.cur != nil {
			return nil
		}
	}
}

// Flush emits segments for every buffered tick, e.g. at the end of
// ingestion or when the active series set changes (Fig. 5).
func (g *SegmentGenerator) Flush() error {
	for len(g.buffer) > 0 {
		if g.cur != nil {
			g.candidates = append(g.candidates, genCandidate{g.tryIdx, g.cur})
			g.cur = nil
		}
		if err := g.emitBest(); err != nil {
			return err
		}
		if err := g.fitTail(); err != nil {
			return err
		}
	}
	return nil
}

// emitBest selects the candidate model with the best compression
// ratio (§3.2 step iii), verifies the reconstruction against the
// buffer, emits the segment and drops the represented prefix.
func (g *SegmentGenerator) emitBest() error {
	type scored struct {
		mt     models.ModelType
		length int
		params []byte
		ratio  float64
	}
	var best *scored
	overhead := 24 + (len(g.active)+7)/8 // §3.2: 24 + sizeof(Model) per segment
	for _, c := range g.candidates {
		length := c.model.Length()
		if length == 0 {
			continue
		}
		params, err := c.model.Bytes(length)
		if err != nil {
			continue
		}
		// Verify the stored parameters reconstruct the buffer within the
		// bound, truncating to the longest verified prefix. Models are
		// black boxes (§3.2), so this also protects the store from
		// faulty user-defined models.
		length, params, err = g.verify(c.typ, c.model, length, params)
		if err != nil || length == 0 {
			continue
		}
		raw := float64(length * len(g.active) * BytesPerDataPoint)
		ratio := raw / float64(overhead+len(params))
		if best == nil || ratio > best.ratio {
			best = &scored{mt: g.types[c.typ], length: length, params: params, ratio: ratio}
		}
	}
	g.candidates = g.candidates[:0]
	g.tryIdx = 0
	if best == nil {
		return fmt.Errorf("%w: group %d at %d", ErrNoFittingModel, g.gid, g.startTime)
	}
	seg := &Segment{
		Gid:       g.gid,
		StartTime: g.startTime,
		EndTime:   g.startTime + int64(best.length-1)*g.si,
		SI:        g.si,
		MID:       best.mt.MID(),
		Params:    best.params,
		GapTids:   g.gaps,
	}
	if err := g.cfg.OnSegment(seg); err != nil {
		return err
	}
	g.emitted++
	g.sumRatio += best.ratio
	g.lastEmit = EmitStats{Ratio: best.ratio, Length: best.length}
	g.emittedSince = true
	g.buffer = g.buffer[best.length:]
	g.startTime += int64(best.length) * g.si
	return nil
}

// verify checks that the serialized parameters of a model of type
// types[typ] reconstruct every buffered tick within the error bound and
// shrinks the length to the longest verified prefix, re-serializing as
// needed. It decodes into the generator's view for that type.
func (g *SegmentGenerator) verify(typ int, m models.Model, length int, params []byte) (int, []byte, error) {
	mid := g.types[typ].MID()
	for length > 0 {
		view, err := g.cfg.Registry.ViewInto(g.views[typ], mid, params, len(g.active), length)
		if err != nil {
			return 0, nil, err
		}
		g.views[typ] = view
		ok := length
		for i := 0; i < length && ok == length; i++ {
			for s := range g.active {
				got, want := view.ValueAt(s, i), g.buffer[i][s]
				// Bit-identical reconstruction always verifies; this is
				// what admits NaN and infinities, which no interval
				// check can (NaN compares unequal to itself).
				if math.Float32bits(got) == math.Float32bits(want) {
					continue
				}
				if !g.cfg.Bound.Within(float64(got), float64(want)) {
					ok = i
					break
				}
			}
		}
		if ok == length {
			return length, params, nil
		}
		length = ok
		if length == 0 {
			return 0, nil, nil
		}
		if params, err = m.Bytes(length); err != nil {
			return 0, nil, err
		}
	}
	return 0, nil, nil
}

// SegmentsEmitted returns the number of segments emitted so far.
func (g *SegmentGenerator) SegmentsEmitted() int { return g.emitted }

// AverageRatio returns the mean compression ratio of the emitted
// segments, used by the split heuristic of §4.2.
func (g *SegmentGenerator) AverageRatio() float64 {
	if g.emitted == 0 {
		return 0
	}
	return g.sumRatio / float64(g.emitted)
}

// TakeEmit reports whether a segment was emitted since the previous
// call and returns its stats; the group ingestor polls this after each
// tick to drive the splitting heuristics.
func (g *SegmentGenerator) TakeEmit() (EmitStats, bool) {
	if !g.emittedSince {
		return EmitStats{}, false
	}
	g.emittedSince = false
	return g.lastEmit, true
}
