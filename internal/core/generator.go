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

	// buffer holds the ticks not yet emitted, one row of len(active)
	// values after another, the first at startTime. The current model
	// represents the whole buffer after every tick and no model grows
	// past LengthLimit, so it never holds more than LengthLimit+1 rows;
	// an emit copies the rest to the front, so once grown it is never
	// reallocated.
	buffer    []float32
	ticks     int // rows in buffer
	startTime int64

	types      []models.ModelType
	tryIdx     int
	cur        models.Model
	fitted     int // buffer ticks accepted by cur
	candidates []candidate
	// views holds one verify view per model type, indexed like types,
	// that each emit decodes into instead of allocating a fresh one.
	views []models.AggView

	emitted      int
	sumRatio     float64
	lastEmit     EmitStats
	emittedSince bool // a segment was emitted since the last TickDone
}

// candidate is one finished model, scored on the ticks it represents.
// Only an emit's leader is verified, so length, params and ratio are
// the fitted ones until verify shortens them.
type candidate struct {
	typ    int // index into types
	model  models.Model
	length int // 0: represents nothing and is never emitted
	params []byte
	ratio  float64
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
func (g *SegmentGenerator) BufferLen() int { return g.ticks }

// Buffer returns the buffered, un-emitted ticks, BufferLen rows of
// len(Active()) values each, flattened row after row. The dynamic-
// splitting Algorithm 3 reads these. The returned slice aliases the
// buffer: it must not be mutated, and the next AppendTick or Flush
// may overwrite it.
func (g *SegmentGenerator) Buffer() []float32 { return g.buffer }

// BufferStartTime returns the timestamp of the first buffered tick.
func (g *SegmentGenerator) BufferStartTime() int64 { return g.startTime }

// row returns buffered tick i, capped so a model cannot append into
// the next one.
func (g *SegmentGenerator) row(i int) []float32 {
	w := len(g.active)
	return g.buffer[i*w : (i+1)*w : (i+1)*w]
}

// AppendTick adds one sampling interval of values, ordered to match
// the active series, and fits models, emitting segments when every
// model type is exhausted.
func (g *SegmentGenerator) AppendTick(values []float32) error {
	if len(values) != len(g.active) {
		return fmt.Errorf("core: tick has %d values for %d active series", len(values), len(g.active))
	}
	g.buffer = append(g.buffer, values...)
	g.ticks++
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
		for g.fitted < g.ticks {
			if g.cur.Length() >= g.cfg.LengthLimit || !g.cur.Append(g.row(g.fitted)) {
				g.finish()
				break
			}
			g.fitted++
		}
		if g.fitted == g.ticks && g.cur != nil {
			return nil
		}
	}
}

// finish moves the current model to the candidates, scored on its
// fitted length, and moves on to the next model type.
func (g *SegmentGenerator) finish() {
	c := candidate{typ: g.tryIdx, model: g.cur, length: g.cur.Length()}
	if c.length > 0 {
		if params, err := c.model.Bytes(c.length); err == nil {
			c.params, c.ratio = params, g.ratio(c.length, params)
		} else {
			c.length = 0
		}
	}
	g.candidates = append(g.candidates, c)
	g.cur = nil
	g.tryIdx++
}

// ratio is the compression ratio of a segment of length ticks stored
// with params: uncompressed data point bytes divided by segment bytes.
func (g *SegmentGenerator) ratio(length int, params []byte) float64 {
	overhead := 24 + (len(g.active)+7)/8 // §3.2: 24 + sizeof(Model) per segment
	raw := float64(length * len(g.active) * BytesPerDataPoint)
	return raw / float64(overhead+len(params))
}

// Flush emits segments for every buffered tick, e.g. at the end of
// ingestion or when the active series set changes (Fig. 5).
func (g *SegmentGenerator) Flush() error {
	for g.ticks > 0 {
		if g.cur != nil {
			g.finish()
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

// best returns the index of the first candidate with the highest
// ratio (§3.2 step iii), or -1 when no candidate represents a tick.
func (g *SegmentGenerator) best() int {
	b := -1
	for i, c := range g.candidates {
		if c.length > 0 && (b < 0 || c.ratio > g.candidates[b].ratio) {
			b = i
		}
	}
	return b
}

// emitBest emits the best candidate and drops the ticks it represents.
// Only the leader is verified. If verify keeps it whole, the choice is
// the one verifying every candidate would make, because no shortened
// candidate can then score above its fitted ratio (the models.Model
// contract). If verify shortens it, every other candidate is verified
// as well and the best is chosen again among the verified ones.
func (g *SegmentGenerator) emitBest() error {
	b := g.best()
	if b >= 0 && !g.verify(&g.candidates[b]) {
		for i := range g.candidates {
			if i != b {
				g.verify(&g.candidates[i])
			}
		}
		b = g.best()
	}
	if b < 0 && g.tryIdx < len(g.types) {
		// Only Flush emits before every type was tried. When none of
		// those tried verifies, fitTail goes on with the others.
		return nil
	}
	var best candidate
	if b >= 0 {
		best = g.candidates[b]
	}
	g.candidates = g.candidates[:0]
	g.tryIdx = 0
	if b < 0 {
		return fmt.Errorf("%w: group %d at %d", ErrNoFittingModel, g.gid, g.startTime)
	}
	seg := &Segment{
		Gid:       g.gid,
		StartTime: g.startTime,
		EndTime:   g.startTime + int64(best.length-1)*g.si,
		SI:        g.si,
		MID:       g.types[best.typ].MID(),
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
	g.buffer = g.buffer[:copy(g.buffer, g.buffer[best.length*len(g.active):])]
	g.ticks -= best.length
	g.startTime += int64(best.length) * g.si
	return nil
}

// verify checks that c's serialized parameters reconstruct every
// buffered tick it represents within the error bound, shrinking c to
// the longest verified prefix and re-serializing and re-scoring it as
// needed; a candidate that cannot be decoded or re-serialized is left
// with length 0. Models are black boxes (§3.2), so this also protects
// the store from faulty user-defined models. It reports whether c kept
// its length. It decodes into the generator's view for c's type.
func (g *SegmentGenerator) verify(c *candidate) bool {
	mid := g.types[c.typ].MID()
	length, params := c.length, c.params
	for length > 0 {
		view, err := g.cfg.Registry.ViewInto(g.views[c.typ], mid, params, len(g.active), length)
		if err != nil {
			length = 0
			break
		}
		g.views[c.typ] = view
		ok := g.verified(view, length)
		if ok == length {
			break
		}
		if length = ok; length == 0 {
			break
		}
		if params, err = c.model.Bytes(length); err != nil {
			length = 0
		}
	}
	whole := length == c.length
	c.length, c.params = length, params
	if length > 0 {
		c.ratio = g.ratio(length, params)
	}
	return whole
}

// verified returns the number of leading buffered ticks view
// reconstructs within the error bound, at most length.
func (g *SegmentGenerator) verified(view models.AggView, length int) int {
	for i := 0; i < length; i++ {
		for s, want := range g.row(i) {
			got := view.ValueAt(s, i)
			// Bit-identical reconstruction always verifies; this is
			// what admits NaN and infinities, which no interval check
			// can (NaN compares unequal to itself).
			if math.Float32bits(got) == math.Float32bits(want) {
				continue
			}
			if !g.cfg.Bound.Within(float64(got), float64(want)) {
				return i
			}
		}
	}
	return length
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
