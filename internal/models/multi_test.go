package models

import (
	"math/rand"
	"testing"
)

func TestMultiPMCGroup(t *testing.T) {
	mt := NewMulti(PMCType{}, MidMultiBase)
	bound := AbsBound(0.5)
	m := mt.New(bound, 3)
	// Each series is near-constant at a different level: a single group
	// PMC could not fit them, but per-series sub-models can (§5.1).
	grid := [][]float32{
		{10, 50, 90},
		{10.2, 50.3, 89.8},
		{9.9, 49.8, 90.2},
	}
	if got := fitAll(m, grid); got != 3 {
		t.Fatalf("fitted length = %d, want 3", got)
	}
	checkViewWithinBound(t, mt, m, grid, 3, bound)
}

func TestMultiRejectsWhenAnySubRejects(t *testing.T) {
	mt := NewMulti(PMCType{}, MidMultiBase)
	m := mt.New(AbsBound(0.5), 2)
	if !m.Append([]float32{10, 20}) {
		t.Fatal("first append rejected")
	}
	// Series 0 stays constant but series 1 jumps: the whole interval is
	// rejected so both sub-models keep representing the same interval.
	if m.Append([]float32{10, 99}) {
		t.Fatal("interval must be rejected when any sub-model rejects")
	}
	if m.Length() != 1 {
		t.Fatalf("Length = %d, want 1", m.Length())
	}
	checkViewWithinBound(t, mt, m, [][]float32{{10, 20}}, 2, AbsBound(0.5))
}

func TestMultiGorillaRoundTrip(t *testing.T) {
	mt := NewMulti(GorillaType{}, MidMultiBase+2)
	m := mt.New(RelBound(0), 2)
	rng := rand.New(rand.NewSource(5))
	var grid [][]float32
	for i := 0; i < 25; i++ {
		grid = append(grid, []float32{rng.Float32() * 10, rng.Float32() * -3})
	}
	fitAll(m, grid)
	params, err := m.Bytes(25)
	if err != nil {
		t.Fatal(err)
	}
	view, err := mt.View(params, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		for s := 0; s < 2; s++ {
			if view.ValueAt(s, i) != grid[i][s] {
				t.Fatalf("value (%d,%d) mismatch", s, i)
			}
		}
	}
	if view.NumSeries() != 2 || view.Length() != 25 {
		t.Fatal("view dimensions wrong")
	}
}

func TestMultiViewBadParams(t *testing.T) {
	mt := NewMulti(PMCType{}, MidMultiBase)
	if _, err := mt.View([]byte{4, 0, 0}, 1, 1); err == nil {
		t.Fatal("truncated multi params must fail")
	}
	if _, err := mt.View(nil, 1, 1); err == nil {
		t.Fatal("empty multi params must fail")
	}
}

func TestMultiAggregatesDelegate(t *testing.T) {
	mt := NewMulti(SwingType{}, MidMultiBase+1)
	m := mt.New(AbsBound(0.01), 2)
	var grid [][]float32
	for i := 0; i < 10; i++ {
		grid = append(grid, []float32{float32(i), float32(2 * i)})
	}
	fitAll(m, grid)
	params, _ := m.Bytes(10)
	view, err := mt.View(params, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Series 0 sums 0..9 = 45, series 1 sums 0..18 = 90.
	if got := view.SumRange(0, 0, 9); got < 44 || got > 46 {
		t.Fatalf("SumRange series 0 = %g, want about 45", got)
	}
	if got := view.SumRange(1, 0, 9); got < 89 || got > 91 {
		t.Fatalf("SumRange series 1 = %g, want about 90", got)
	}
	if got := view.MinRange(1, 0, 9); got > 0.1 {
		t.Fatalf("MinRange = %g, want about 0", got)
	}
	if got := view.MaxRange(1, 0, 9); got < 17.9 {
		t.Fatalf("MaxRange = %g, want about 18", got)
	}
}

func TestMultiWrongWidth(t *testing.T) {
	mt := NewMulti(PMCType{}, MidMultiBase)
	m := mt.New(AbsBound(1), 2)
	if m.Append([]float32{1}) {
		t.Fatal("wrong width must be rejected")
	}
}

// TestMultiAppendAllocatesNothing: Append hands each sub-model its
// series' value through the model's own one-value scratch, so fitting
// a tick costs no allocation.
func TestMultiAppendAllocatesNothing(t *testing.T) {
	for _, inner := range []ModelType{PMCType{}, SwingType{}} {
		m := NewMulti(inner, MidMultiBase).New(AbsBound(1), 3)
		tick := []float32{10, 20, 30}
		allocs := testing.AllocsPerRun(100, func() {
			if !m.Append(tick) {
				t.Fatalf("Multi%s rejected a constant tick", inner.Name())
			}
		})
		if allocs != 0 {
			t.Fatalf("Multi%s Append: %v allocs per tick, want 0", inner.Name(), allocs)
		}
	}
}
