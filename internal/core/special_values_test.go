package core

import (
	"math"
	"testing"

	"modelardb/internal/models"
)

// TestIngestSpecialFloatValues: NaN and infinities cannot satisfy any
// interval-based error bound (NaN compares unequal to everything), so
// the pipeline must route them into the Gorilla fallback, which stores
// them bit-exactly at every bound (it is lossless only at bound 0 for
// finite values), rather than failing ingestion. The paper assumes
// clean sensor data, but a store must not corrupt or reject what it is
// given.
func TestIngestSpecialFloatValues(t *testing.T) {
	specials := []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		0,
		float32(math.Copysign(0, -1)), // negative zero
		math.Float32frombits(1),       // smallest subnormal
	}
	for _, bound := range []models.ErrorBound{models.RelBound(0), models.RelBound(5), models.AbsBound(1)} {
		t.Run(bound.String(), func(t *testing.T) {
			var segs []*Segment
			g := NewSegmentGenerator(collectConfig(bound, &segs), 1, 100, 0, []Tid{1}, nil)
			var values []float32
			for i := 0; i < 60; i++ {
				v := specials[i%len(specials)]
				values = append(values, v)
				if err := g.AppendTick([]float32{v}); err != nil {
					t.Fatalf("tick %d (value %g): %v", i, v, err)
				}
			}
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			reg := models.NewBuiltinRegistry()
			i := 0
			for _, seg := range segs {
				view, err := reg.View(seg.MID, seg.Params, 1, seg.Length())
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < seg.Length(); k++ {
					got := view.ValueAt(0, k)
					want := values[i]
					if math.Float32bits(got) != math.Float32bits(want) &&
						!bound.Within(float64(got), float64(want)) {
						t.Fatalf("value %d = %x, want %x (bound %v)",
							i, math.Float32bits(got), math.Float32bits(want), bound)
					}
					i++
				}
			}
			if i != len(values) {
				t.Fatalf("reconstructed %d values, want %d", i, len(values))
			}
		})
	}
}

// TestIngestMixedSpecialAndNormal interleaves NaN bursts with normal
// data: the normal stretches should still compress with bound-based
// models while the special values survive bit-exactly.
func TestIngestMixedSpecialAndNormal(t *testing.T) {
	var segs []*Segment
	g := NewSegmentGenerator(collectConfig(models.RelBound(5), &segs), 1, 100, 0, []Tid{1}, nil)
	var values []float32
	for i := 0; i < 300; i++ {
		v := float32(100)
		if i%97 == 0 {
			v = float32(math.NaN())
		}
		values = append(values, v)
		if err := g.AppendTick([]float32{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	reg := models.NewBuiltinRegistry()
	i := 0
	sawPMC := false
	for _, seg := range segs {
		if seg.MID == models.MidPMC {
			sawPMC = true
		}
		view, err := reg.View(seg.MID, seg.Params, 1, seg.Length())
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < seg.Length(); k++ {
			got, want := view.ValueAt(0, k), values[i]
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(got)) {
					t.Fatalf("value %d = %g, want NaN", i, got)
				}
			} else if !models.RelBound(5).Within(float64(got), float64(want)) {
				t.Fatalf("value %d = %g, want within 5%% of %g", i, got, want)
			}
			i++
		}
	}
	if i != len(values) {
		t.Fatalf("reconstructed %d values, want %d", i, len(values))
	}
	if !sawPMC {
		t.Fatal("normal stretches should still use PMC")
	}
}
