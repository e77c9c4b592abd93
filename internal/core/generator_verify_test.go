package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"modelardb/internal/models"
)

// verifyAllGenerator is the segment generator as it was before emits
// verified only their leader: one slice per buffered tick, and every
// candidate verified, and possibly shortened, before the best ratio is
// chosen. It is the oracle of the tests below, which require the
// generator to emit the same segments.
type verifyAllGenerator struct {
	cfg       GeneratorConfig
	gid       Gid
	si        int64
	width     int
	startTime int64
	buffer    [][]float32

	types      []models.ModelType
	tryIdx     int
	cur        models.Model
	fitted     int
	candidates []oracleCandidate
	views      []models.AggView

	// shortened records, per emitted segment, whether verify shortened
	// or refused any of that emit's candidates, and scored how many
	// candidates it verified.
	shortened []bool
	scored    []int
}

type oracleCandidate struct {
	typ   int
	model models.Model
}

func newVerifyAllGenerator(cfg GeneratorConfig, gid Gid, si, startTime int64, width int) *verifyAllGenerator {
	if cfg.LengthLimit <= 0 {
		cfg.LengthLimit = DefaultLengthLimit
	}
	types := cfg.Registry.Types()
	return &verifyAllGenerator{cfg: cfg, gid: gid, si: si, width: width, startTime: startTime,
		types: types, views: make([]models.AggView, len(types))}
}

func (g *verifyAllGenerator) AppendTick(values []float32) error {
	row := make([]float32, len(values))
	copy(row, values)
	g.buffer = append(g.buffer, row)
	return g.fitTail()
}

func (g *verifyAllGenerator) fitTail() error {
	for {
		if g.cur == nil {
			if g.tryIdx >= len(g.types) {
				if err := g.emitBest(); err != nil {
					return err
				}
				continue
			}
			g.cur = g.types[g.tryIdx].New(g.cfg.Bound, g.width)
			g.fitted = 0
		}
		for g.fitted < len(g.buffer) {
			if g.cur.Length() >= g.cfg.LengthLimit || !g.cur.Append(g.buffer[g.fitted]) {
				g.candidates = append(g.candidates, oracleCandidate{g.tryIdx, g.cur})
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

func (g *verifyAllGenerator) Flush() error {
	for len(g.buffer) > 0 {
		if g.cur != nil {
			g.candidates = append(g.candidates, oracleCandidate{g.tryIdx, g.cur})
			g.cur = nil
			g.tryIdx++
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

func (g *verifyAllGenerator) emitBest() error {
	type scored struct {
		mt     models.ModelType
		length int
		params []byte
		ratio  float64
	}
	var best *scored
	shortened, verified := false, 0
	overhead := 24 + (g.width+7)/8
	for _, c := range g.candidates {
		length := c.model.Length()
		if length == 0 {
			continue
		}
		params, err := c.model.Bytes(length)
		if err != nil {
			continue
		}
		fitted := length
		verified++
		length, params, err = g.verify(c.typ, c.model, length, params)
		if err != nil || length < fitted {
			shortened = true
		}
		if err != nil || length == 0 {
			continue
		}
		raw := float64(length * g.width * BytesPerDataPoint)
		ratio := raw / float64(overhead+len(params))
		if best == nil || ratio > best.ratio {
			best = &scored{mt: g.types[c.typ], length: length, params: params, ratio: ratio}
		}
	}
	if best == nil && g.tryIdx < len(g.types) {
		return nil // a flush fits the untried types, as SegmentGenerator's does
	}
	g.candidates = g.candidates[:0]
	g.tryIdx = 0
	if best == nil {
		return fmt.Errorf("%w: group %d at %d", ErrNoFittingModel, g.gid, g.startTime)
	}
	g.shortened = append(g.shortened, shortened)
	g.scored = append(g.scored, verified)
	seg := &Segment{
		Gid:       g.gid,
		StartTime: g.startTime,
		EndTime:   g.startTime + int64(best.length-1)*g.si,
		SI:        g.si,
		MID:       best.mt.MID(),
		Params:    best.params,
	}
	if err := g.cfg.OnSegment(seg); err != nil {
		return err
	}
	g.buffer = g.buffer[best.length:]
	g.startTime += int64(best.length) * g.si
	return nil
}

func (g *verifyAllGenerator) verify(typ int, m models.Model, length int, params []byte) (int, []byte, error) {
	mid := g.types[typ].MID()
	for length > 0 {
		view, err := g.cfg.Registry.ViewInto(g.views[typ], mid, params, g.width, length)
		if err != nil {
			return 0, nil, err
		}
		g.views[typ] = view
		ok := length
		for i := 0; i < length && ok == length; i++ {
			for s := 0; s < g.width; s++ {
				got, want := view.ValueAt(s, i), g.buffer[i][s]
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

// countingType counts the views its model type decodes, through View
// and ViewInto alike: the generator decodes one per verify pass.
type countingType struct {
	models.ModelType
	views *int
}

func (t countingType) View(params []byte, nseries, length int) (models.AggView, error) {
	*t.views++
	return t.ModelType.View(params, nseries, length)
}

func (t countingType) ViewInto(prev models.AggView, params []byte, nseries, length int) (models.AggView, error) {
	*t.views++
	if vr, ok := t.ModelType.(models.ViewReuser); ok {
		return vr.ViewInto(prev, params, nseries, length)
	}
	return t.ModelType.View(params, nseries, length)
}

// countingRegistry registers types, in order, each counting into views.
func countingRegistry(t *testing.T, types []models.ModelType, views *int) *models.Registry {
	t.Helper()
	reg := models.NewRegistry()
	for _, mt := range types {
		if err := reg.Register(countingType{mt, views}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// emitLog is one generator's emitted segments, with the views decoded
// for each: those decoded since the previous segment.
type emitLog struct {
	segs  []*Segment
	views []int

	counter, last int
}

func (l *emitLog) onSegment(s *Segment) error {
	l.segs = append(l.segs, s)
	l.views = append(l.views, l.counter-l.last)
	l.last = l.counter
	return nil
}

// genPair drives a SegmentGenerator and its verify-all oracle with the
// same ticks and flushes.
type genPair struct {
	gen       *SegmentGenerator
	oracle    *verifyAllGenerator
	got, want emitLog
}

func newGenPair(t *testing.T, types []models.ModelType, bound models.ErrorBound, lengthLimit, width int) *genPair {
	p := &genPair{}
	active := make([]Tid, width)
	for i := range active {
		active[i] = Tid(i + 1)
	}
	cfg := GeneratorConfig{Registry: countingRegistry(t, types, &p.got.counter), Bound: bound,
		LengthLimit: lengthLimit, OnSegment: p.got.onSegment}
	p.gen = NewSegmentGenerator(cfg, 7, 100, 0, active, nil)
	cfg.Registry, cfg.OnSegment = countingRegistry(t, types, &p.want.counter), p.want.onSegment
	p.oracle = newVerifyAllGenerator(cfg, 7, 100, 0, width)
	return p
}

func (p *genPair) tick(t *testing.T, values []float32) {
	t.Helper()
	if err := p.gen.AppendTick(values); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.AppendTick(values); err != nil {
		t.Fatal(err)
	}
}

func (p *genPair) flush(t *testing.T) {
	t.Helper()
	if err := p.gen.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.oracle.Flush(); err != nil {
		t.Fatal(err)
	}
}

// check requires identical segment streams and returns the number of
// emits in which the oracle's verify shortened nothing.
func (p *genPair) check(t *testing.T) (whole int) {
	t.Helper()
	if len(p.got.segs) != len(p.want.segs) {
		t.Fatalf("%d segments, the verify-all oracle emits %d", len(p.got.segs), len(p.want.segs))
	}
	for i, got := range p.got.segs {
		want := p.want.segs[i]
		if got.Gid != want.Gid || got.StartTime != want.StartTime || got.EndTime != want.EndTime ||
			got.MID != want.MID || !bytes.Equal(got.Params, want.Params) {
			t.Fatalf("segment %d = {gid %d [%d, %d] MID %d %x}, oracle {gid %d [%d, %d] MID %d %x}", i,
				got.Gid, got.StartTime, got.EndTime, got.MID, got.Params,
				want.Gid, want.StartTime, want.EndTime, want.MID, want.Params)
		}
		if p.oracle.shortened[i] {
			continue
		}
		whole++
		if p.got.views[i] != 1 || p.want.views[i] != p.oracle.scored[i] {
			t.Fatalf("segment %d: %d views decoded with no candidate shortened, want 1 (the leader's); oracle %d for %d candidates",
				i, p.got.views[i], p.want.views[i], p.oracle.scored[i])
		}
	}
	return whole
}

// randomTicks returns n ticks of width correlated values: one level
// that runs constant, linear or noisy stretches, each series at its
// own small offset from it, so every built-in model wins segments;
// sprinkled with NaN, ±Inf, -0 and denormals.
func randomTicks(rng *rand.Rand, n, width int) [][]float32 {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(3), float32(math.Copysign(0, -1))}
	level := rng.NormFloat64() * 100
	offsets := make([]float64, width)
	for s := range offsets {
		if rng.Intn(2) == 0 {
			offsets[s] = rng.NormFloat64()
		}
	}
	ticks := make([][]float32, n)
	regime, left, slope := 0, 0, 0.0
	for i := range ticks {
		if left == 0 {
			regime, left, slope = rng.Intn(3), 1+rng.Intn(80), rng.NormFloat64()
		}
		left--
		switch regime {
		case 1:
			level += slope
		case 2:
			level += rng.NormFloat64() * 5
		}
		row := make([]float32, width)
		for s := range row {
			row[s] = float32(level + offsets[s])
			if regime == 2 {
				row[s] += float32(rng.NormFloat64())
			}
			if rng.Intn(100) == 0 {
				row[s] = specials[rng.Intn(len(specials))]
			}
		}
		ticks[i] = row
	}
	return ticks
}

// TestGeneratorMatchesVerifyAll: verifying only the leader emits the
// same segments, byte for byte, as verifying every candidate did, over
// widths, bounds, length limits, special values and random flushes,
// and an emit whose candidates verify whole decodes one view, not one
// per candidate.
func TestGeneratorMatchesVerifyAll(t *testing.T) {
	bounds := []models.ErrorBound{models.RelBound(0), models.RelBound(1), models.RelBound(5), models.RelBound(10), models.AbsBound(0.5)}
	emits, whole, oracleViews, views := 0, 0, 0, 0
	mids := map[models.MID]int{}
	for width := 1; width <= 8; width++ {
		for _, bound := range bounds {
			for _, limit := range []int{1, 2, 50, 500} {
				t.Run(fmt.Sprintf("w%d/%s/limit%d", width, bound, limit), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(width*1000 + limit)))
					p := newGenPair(t, models.NewBuiltinRegistry().Types(), bound, limit, width)
					for _, tick := range randomTicks(rng, 700, width) {
						p.tick(t, tick)
						if rng.Intn(40) == 0 {
							p.flush(t)
						}
					}
					p.flush(t)
					whole += p.check(t)
					emits += len(p.got.segs)
					for _, seg := range p.got.segs {
						mids[seg.MID]++
					}
					oracleViews += p.want.counter
					views += p.got.counter
				})
			}
		}
	}
	t.Logf("%d emits, %d with every candidate whole, segments per MID %v; views decoded: %d, verify-all oracle %d",
		emits, whole, mids, views, oracleViews)
	if len(mids) != 3 {
		t.Fatalf("segments per MID %v: the data must make every built-in model win", mids)
	}
	if whole == emits || whole == 0 {
		t.Fatalf("%d of %d emits had every candidate whole: the data must exercise both paths", whole, emits)
	}
}

// liarType is a PMC that lies. Its model fits PMC honestly for k ticks
// and then accepts every tick up to the length limit, still stored as
// one 4-byte mean, while its view reconstructs every tick from the
// k-th on a million units off. Registered first with its 4-byte
// parameters, it is the leader of every emit it lies in.
type liarType struct{ k int }

func (liarType) MID() models.MID { return models.MidUserBase }
func (liarType) Name() string    { return "Liar" }

func (t liarType) New(bound models.ErrorBound, nseries int) models.Model {
	return &liarModel{k: t.k, pmc: models.PMCType{}.New(bound, nseries)}
}

func (t liarType) View(params []byte, nseries, length int) (models.AggView, error) {
	v, err := models.PMCType{}.View(params, nseries, length)
	if err != nil {
		return nil, err
	}
	return liarView{v, t.k}, nil
}

type liarModel struct {
	k      int
	pmc    models.Model
	length int
}

func (m *liarModel) Append(values []float32) bool {
	if m.length < m.k && !m.pmc.Append(values) {
		return false
	}
	m.length++
	return true
}

func (m *liarModel) Length() int { return m.length }

func (m *liarModel) Bytes(length int) ([]byte, error) {
	if length < 1 || length > m.length {
		return nil, fmt.Errorf("liar: Bytes(%d) outside [1, %d]", length, m.length)
	}
	return m.pmc.Bytes(min(length, m.pmc.Length()))
}

type liarView struct {
	models.AggView
	k int
}

func (v liarView) ValueAt(series, i int) float32 {
	if i < v.k {
		return v.AggView.ValueAt(series, i)
	}
	return v.AggView.ValueAt(series, i) + 1e6
}

// TestGeneratorLeaderThatLies: a leader whose parameters reconstruct
// outside the bound is caught by verify, shortened, and the choice
// falls back to verifying every candidate, so every emitted segment
// reconstructs within the bound and the segments are the oracle's.
func TestGeneratorLeaderThatLies(t *testing.T) {
	types := append([]models.ModelType{liarType{k: 3}}, models.NewBuiltinRegistry().Types()...)
	reg := models.NewRegistry()
	for _, mt := range types {
		if err := reg.Register(mt); err != nil {
			t.Fatal(err)
		}
	}
	fallbacks := 0
	for _, bound := range []models.ErrorBound{models.RelBound(0), models.RelBound(5), models.AbsBound(0.5)} {
		for width := 1; width <= 4; width++ {
			t.Run(fmt.Sprintf("w%d/%s", width, bound), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width)))
				p := newGenPair(t, types, bound, 50, width)
				// Level runs that PMC, and so the liar, fits past k.
				var ticks [][]float32
				level, left := 0.0, 0
				for range 400 {
					if left == 0 {
						level, left = float64(10+rng.Intn(5)*10), 1+rng.Intn(20)
					}
					left--
					tick := make([]float32, width)
					for s := range tick {
						tick[s] = float32(level + rng.NormFloat64()*0.1)
					}
					ticks = append(ticks, tick)
					p.tick(t, tick)
				}
				p.flush(t)
				at := 0
				for i, seg := range p.got.segs {
					if p.got.views[i] > 1 {
						fallbacks++
					}
					view, err := reg.View(seg.MID, seg.Params, width, seg.Length())
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < seg.Length(); k++ {
						for s := 0; s < width; s++ {
							got, want := view.ValueAt(s, k), ticks[at][s]
							if got != want && !bound.Within(float64(got), float64(want)) {
								t.Fatalf("segment %d (MID %d) tick %d series %d: %g reconstructs %g, outside %s",
									i, seg.MID, at, s, got, want, bound)
							}
						}
						at++
					}
				}
				if at != len(ticks) {
					t.Fatalf("segments cover %d ticks, want %d", at, len(ticks))
				}
				p.check(t)
			})
		}
	}
	if fallbacks == 0 {
		t.Fatal("no emit fell back to verifying every candidate: the liar never led")
	}
}
