package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelardb/internal/models"
)

// collectConfig returns a generator config that appends emitted
// segments to *out.
func collectConfig(bound models.ErrorBound, out *[]*Segment) GeneratorConfig {
	return GeneratorConfig{
		Registry: models.NewBuiltinRegistry(),
		Bound:    bound,
		OnSegment: func(s *Segment) error {
			*out = append(*out, s)
			return nil
		},
	}
}

// segmentValues reconstructs the per-series values of a segment using
// the builtin registry: map from Tid to the values over the segment's
// grid.
func segmentValues(t *testing.T, seg *Segment, groupMembers []Tid) map[Tid][]float32 {
	t.Helper()
	active := tidsDiff(groupMembers, seg.GapTids)
	view, err := models.NewBuiltinRegistry().View(seg.MID, seg.Params, len(active), seg.Length())
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	out := make(map[Tid][]float32, len(active))
	for pos, tid := range active {
		vals := make([]float32, seg.Length())
		for i := range vals {
			vals[i] = view.ValueAt(pos, i)
		}
		out[tid] = vals
	}
	return out
}

func TestGeneratorConstantSeriesUsesPMC(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(0), &segs), 1, 100, 0, []Tid{1}, nil)
	for i := 0; i < 50; i++ {
		if err := g.AppendTick([]float32{7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	if segs[0].MID != models.MidPMC {
		t.Fatalf("MID = %d, want PMC", segs[0].MID)
	}
	if segs[0].StartTime != 0 || segs[0].EndTime != 4900 {
		t.Fatalf("segment interval = [%d, %d], want [0, 4900]", segs[0].StartTime, segs[0].EndTime)
	}
}

func TestGeneratorLinearSeriesUsesSwing(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(1), &segs), 1, 100, 0, []Tid{1}, nil)
	for i := 0; i < 50; i++ {
		if err := g.AppendTick([]float32{float32(100 + 3*i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].MID != models.MidSwing {
		t.Fatalf("want one Swing segment, got %d segments, MID %d", len(segs), segs[0].MID)
	}
}

func TestGeneratorNoiseFallsBackToGorilla(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(0), &segs), 1, 100, 0, []Tid{1}, nil)
	rng := rand.New(rand.NewSource(42))
	var values []float32
	for i := 0; i < 120; i++ {
		v := float32(rng.NormFloat64() * 1000)
		values = append(values, v)
		if err := g.AppendTick([]float32{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments emitted")
	}
	// Lossless reconstruction must be exact.
	i := 0
	for _, seg := range segs {
		if seg.MID != models.MidGorilla {
			t.Fatalf("MID = %d, want Gorilla for white noise at 0%%", seg.MID)
		}
		for _, v := range segmentValues(t, seg, []Tid{1})[1] {
			if v != values[i] {
				t.Fatalf("value %d = %g, want %g", i, v, values[i])
			}
			i++
		}
	}
	if i != len(values) {
		t.Fatalf("reconstructed %d values, want %d", i, len(values))
	}
}

func TestGeneratorLengthLimit(t *testing.T) {
	var segs []*Segment
	cfg := collectConfig(models.RelBound(0), &segs)
	cfg.LengthLimit = 10
	g := NewSegmentGenerator(cfg, 1, 100, 0, []Tid{1}, nil)
	for i := 0; i < 35; i++ {
		if err := g.AppendTick([]float32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 { // 10+10+10+5
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	for i, seg := range segs[:3] {
		if seg.Length() != 10 {
			t.Fatalf("segment %d length = %d, want 10", i, seg.Length())
		}
	}
	if segs[3].Length() != 5 {
		t.Fatalf("last segment length = %d, want 5", segs[3].Length())
	}
}

func TestGeneratorSegmentsAreContiguous(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(5), &segs), 1, 100, 1000, []Tid{1}, nil)
	rng := rand.New(rand.NewSource(9))
	v := 100.0
	for i := 0; i < 500; i++ {
		v += rng.NormFloat64()
		if err := g.AppendTick([]float32{float32(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	next := int64(1000)
	for i, seg := range segs {
		if seg.StartTime != next {
			t.Fatalf("segment %d starts at %d, want %d (disconnected but contiguous)", i, seg.StartTime, next)
		}
		next = seg.EndTime + 100
	}
	if next != 1000+500*100 {
		t.Fatalf("segments end at %d, want %d", next, 1000+500*100)
	}
}

func TestGeneratorModelSwitchesOnStructureChange(t *testing.T) {
	// Constant run, then linear ramp: expect at least one PMC and one
	// Swing segment — multi-model compression in action.
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(1), &segs), 1, 100, 0, []Tid{1}, nil)
	for i := 0; i < 50; i++ {
		if err := g.AppendTick([]float32{50}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := g.AppendTick([]float32{float32(50 + 10*i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	used := map[models.MID]bool{}
	for _, s := range segs {
		used[s.MID] = true
	}
	if !used[models.MidPMC] || !used[models.MidSwing] {
		t.Fatalf("models used = %v, want PMC and Swing", used)
	}
}

func TestGeneratorGroupSharesModel(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.AbsBound(1), &segs), 1, 100, 0, []Tid{1, 2, 3}, nil)
	for i := 0; i < 50; i++ {
		base := float32(100 - 0.3*float32(i))
		if err := g.AppendTick([]float32{base - 0.5, base, base + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1 for correlated group", len(segs))
	}
	vals := segmentValues(t, segs[0], []Tid{1, 2, 3})
	if len(vals) != 3 {
		t.Fatalf("series reconstructed = %d, want 3", len(vals))
	}
}

func TestGeneratorRejectsWrongWidth(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(0), &segs), 1, 100, 0, []Tid{1, 2}, nil)
	if err := g.AppendTick([]float32{1}); err == nil {
		t.Fatal("wrong width must fail")
	}
}

func TestGeneratorNoFittingModel(t *testing.T) {
	// A registry with only PMC cannot represent a changing series at 0%.
	reg := models.NewRegistry()
	if err := reg.Register(models.PMCType{}); err != nil {
		t.Fatal(err)
	}
	var segs []*Segment
	cfg := GeneratorConfig{
		Registry:  reg,
		Bound:     models.RelBound(0),
		OnSegment: func(s *Segment) error { segs = append(segs, s); return nil },
	}
	g := NewSegmentGenerator(cfg, 1, 100, 0, []Tid{1, 2}, nil)
	// First tick with incompatible values: PMC rejects even tick one.
	err := g.AppendTick([]float32{1, 100})
	if err == nil {
		err = g.Flush()
	}
	if err == nil {
		t.Fatal("expected ErrNoFittingModel")
	}
}

func TestGeneratorStatsTracking(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(0), &segs), 1, 100, 0, []Tid{1}, nil)
	for i := 0; i < 200; i++ {
		if err := g.AppendTick([]float32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if g.SegmentsEmitted() != len(segs) {
		t.Fatalf("SegmentsEmitted = %d, want %d", g.SegmentsEmitted(), len(segs))
	}
	if g.AverageRatio() <= 1 {
		t.Fatalf("AverageRatio = %g, want > 1 for constant data", g.AverageRatio())
	}
	if _, ok := g.TakeEmit(); !ok {
		t.Fatal("TakeEmit must report the flush emission")
	}
	if _, ok := g.TakeEmit(); ok {
		t.Fatal("TakeEmit must only report once")
	}
}

// TestGeneratorQuickWithinBound is the core invariant: whatever the
// input, every emitted segment reconstructs every value within the
// error bound.
func TestGeneratorQuickWithinBound(t *testing.T) {
	f := func(seed int64, relPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bound := models.RelBound(float64(relPct % 11)) // 0..10%
		nseries := rng.Intn(3) + 1
		tids := make([]Tid, nseries)
		for i := range tids {
			tids[i] = Tid(i + 1)
		}
		var segs []*Segment
		g := NewSegmentGenerator(collectConfig(bound, &segs), 1, 100, 0, tids, nil)
		nticks := rng.Intn(300) + 1
		grid := make([][]float32, nticks)
		base := rng.Float64() * 100
		for i := range grid {
			base += rng.NormFloat64() * 2
			row := make([]float32, nseries)
			for s := range row {
				row[s] = float32(base + rng.NormFloat64()*0.5)
			}
			grid[i] = row
			if err := g.AppendTick(row); err != nil {
				return false
			}
		}
		if err := g.Flush(); err != nil {
			return false
		}
		// Check coverage and bound.
		i := 0
		reg := models.NewBuiltinRegistry()
		for _, seg := range segs {
			view, err := reg.View(seg.MID, seg.Params, nseries, seg.Length())
			if err != nil {
				return false
			}
			for k := 0; k < seg.Length(); k++ {
				for s := 0; s < nseries; s++ {
					if !bound.Within(float64(view.ValueAt(s, k)), float64(grid[i][s])) {
						return false
					}
				}
				i++
			}
		}
		return i == nticks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorCompressionImprovesWithBound(t *testing.T) {
	sizes := map[float64]int{}
	for _, pct := range []float64{0, 1, 5, 10} {
		var segs []*Segment
		g := NewSegmentGenerator(collectConfig(models.RelBound(pct), &segs), 1, 100, 0, []Tid{1}, nil)
		rng := rand.New(rand.NewSource(4))
		v := 100.0
		for i := 0; i < 2000; i++ {
			v += math.Sin(float64(i)/40) + rng.NormFloat64()*0.3
			if err := g.AppendTick([]float32{float32(v)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range segs {
			total += s.StoredSize([]Tid{1})
		}
		sizes[pct] = total
	}
	if !(sizes[10] < sizes[5] && sizes[5] < sizes[1] && sizes[1] < sizes[0]) {
		t.Fatalf("sizes must shrink with the bound: %v", sizes)
	}
}

// TestFlushFitsUntriedTypes: PMC accepts a NaN tick, because its
// corridor and mean turn NaN and no comparison with NaN fails, so at a
// flush the open PMC can cover ticks its parameters do not reconstruct.
// Flush must then fit the model types it has not tried yet, as an emit
// after every type would, instead of failing with ErrNoFittingModel.
func TestFlushFitsUntriedTypes(t *testing.T) {
	for _, bound := range []models.ErrorBound{models.RelBound(0), models.RelBound(5), models.AbsBound(1)} {
		t.Run(bound.String(), func(t *testing.T) {
			var segs []*Segment
			g := NewSegmentGenerator(collectConfig(bound, &segs), 1, 100, 0, []Tid{1}, nil)
			values := []float32{1, float32(math.NaN()), 1}
			for _, v := range values {
				if err := g.AppendTick([]float32{v}); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, seg := range segs {
				for _, got := range segmentValues(t, seg, []Tid{1})[1] {
					if want := values[i]; math.Float32bits(got) != math.Float32bits(want) && !bound.Within(float64(got), float64(want)) {
						t.Fatalf("value %d = %g, want %g within %s", i, got, want, bound)
					}
					i++
				}
			}
			if i != len(values) {
				t.Fatalf("segments cover %d ticks, want %d", i, len(values))
			}
		})
	}
}

// TestVerifyKeepsGorillaWhole: at a non-zero bound Gorilla quantizes
// every value within the bound before it encodes it, so verify never
// shortens a Gorilla candidate. With Gorilla the only model type every
// segment but the last one Flush emits spans the whole length limit,
// over noise, sign flips, denormals and special values alike.
func TestVerifyKeepsGorillaWhole(t *testing.T) {
	reg := models.NewRegistry()
	if err := reg.Register(models.GorillaType{}); err != nil {
		t.Fatal(err)
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(-1)), math.Float32frombits(3), float32(math.Copysign(0, -1)), math.MaxFloat32}
	for _, bound := range []models.ErrorBound{models.RelBound(1), models.RelBound(5), models.RelBound(10), models.AbsBound(0.5)} {
		t.Run(bound.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			var segs []*Segment
			cfg := collectConfig(bound, &segs)
			cfg.Registry = reg
			g := NewSegmentGenerator(cfg, 1, 100, 0, []Tid{1, 2, 3}, nil)
			const ticks = 1000
			v := 100.0
			for i := 0; i < ticks; i++ {
				v += rng.NormFloat64()
				tick := []float32{float32(v), float32(-v + rng.NormFloat64()), float32(v * rng.NormFloat64())}
				if rng.Intn(20) == 0 {
					tick[rng.Intn(3)] = specials[rng.Intn(len(specials))]
				}
				if err := g.AppendTick(tick); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(segs) != ticks/DefaultLengthLimit {
				t.Fatalf("%d segments, want %d", len(segs), ticks/DefaultLengthLimit)
			}
			for i, seg := range segs {
				if seg.Length() != DefaultLengthLimit {
					t.Fatalf("segment %d spans %d intervals, want the limit %d: verify shortened it", i, seg.Length(), DefaultLengthLimit)
				}
			}
		})
	}
}
