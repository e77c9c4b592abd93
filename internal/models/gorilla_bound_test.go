package models

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gorillaFit appends grid (rows of nseries values) to a Gorilla model
// at bound and returns the view of its full stream.
func gorillaFit(t testing.TB, bound ErrorBound, nseries int, grid [][]float32) AggView {
	t.Helper()
	m := GorillaType{}.New(bound, nseries)
	for i, row := range grid {
		if !m.Append(row) {
			t.Fatalf("Append rejected row %d", i)
		}
	}
	params, err := m.Bytes(len(grid))
	if err != nil {
		t.Fatal(err)
	}
	view, err := GorillaType{}.View(params, nseries, len(grid))
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// checkWithin fails unless every stored value is the appended one bit
// for bit or, for a finite one, within the bound of it: the predicate
// SegmentGenerator.verify applies.
func checkWithin(t *testing.T, bound ErrorBound, grid [][]float32, view AggView) {
	t.Helper()
	for i, row := range grid {
		for s, want := range row {
			got := view.ValueAt(s, i)
			if math.Float32bits(got) == math.Float32bits(want) {
				continue
			}
			if math.IsNaN(float64(want)) || math.IsInf(float64(want), 0) {
				t.Fatalf("bound %v: value (%d,%d) = %x, want %x exactly", bound, s, i, math.Float32bits(got), math.Float32bits(want))
			}
			if math.IsNaN(float64(got)) || math.IsInf(float64(got), 0) || !bound.Within(float64(got), float64(want)) {
				t.Fatalf("bound %v: value (%d,%d) = %g, want %g within the bound", bound, s, i, got, want)
			}
		}
	}
}

// TestGorillaBoundPerPoint is the per-point oracle for Gorilla at
// non-zero bounds: over adversarial series every stored value is the
// appended one or within the bound of it, and bound 0 stays lossless.
func TestGorillaBoundPerPoint(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	denorm := math.Float32frombits(1)
	maxDenorm := math.Float32frombits(1<<23 - 1)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	series := map[string][]float32{
		"zeros":          {0, negZero, 0, 0, negZero, negZero, 1e-30, 0},
		"sign flips":     {1, -1, 1.01, -1.01, 0.5, -0.49, 1e6, -1e6, 3, -3},
		"denormals":      {denorm, -denorm, maxDenorm, -maxDenorm, 2 * denorm, math.SmallestNonzeroFloat32, 1.2e-38},
		"specials":       {nan, inf, -inf, 1, nan, nan, -inf, 100, inf, math.Float32frombits(0x7fc00001)},
		"near max":       {math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x7f7ffff0), math.MaxFloat32, 3.4e38, -3.39e38},
		"constant runs":  {7, 7, 7, 7, 7, 7.0001, 7.0001, 7.0001, -2, -2, -2, -2},
		"mantissa edges": {math.Float32frombits(0x3fffffff), math.Float32frombits(0x3f800001), math.Float32frombits(0x407fffff), 1 - 1e-7},
	}
	rng := rand.New(rand.NewSource(17))
	walk := make([]float32, 300)
	v := 100.0
	for i := range walk {
		v += rng.NormFloat64()
		walk[i] = float32(v)
	}
	series["random walk"] = walk
	// The widest bounds round values near ±MaxFloat32 past it, where
	// the stored value must still be finite.
	bounds := []ErrorBound{RelBound(0), RelBound(1), RelBound(5), RelBound(10), RelBound(100), RelBound(250), RelBound(1000),
		AbsBound(0.01), AbsBound(1), AbsBound(1e30), AbsBound(math.MaxFloat32), AbsBound(math.Inf(1))}
	for name, values := range series {
		for _, nseries := range []int{1, 2, 3} {
			// Lay the series out over nseries columns so values XOR
			// against both the previous interval and the neighbouring
			// series.
			var grid [][]float32
			for i := 0; i+nseries <= len(values); i += nseries {
				grid = append(grid, values[i:i+nseries])
			}
			for _, bound := range bounds {
				t.Run(fmt.Sprintf("%s/%d series/%v", name, nseries, bound), func(t *testing.T) {
					view := gorillaFit(t, bound, nseries, grid)
					if !bound.IsLossless() {
						checkWithin(t, bound, grid, view)
						return
					}
					for i, row := range grid {
						for s, want := range row {
							if got := view.ValueAt(s, i); math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("lossless value (%d,%d) = %x, want %x", s, i, math.Float32bits(got), math.Float32bits(want))
							}
						}
					}
				})
			}
		}
	}
}

// TestGorillaBoundShrinksStream: spending the bound never costs bytes
// on a noisy walk, and a 1 % bound on one at magnitude 100 stores far
// fewer than the lossless stream.
func TestGorillaBoundShrinksStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var grid [][]float32
	v := 100.0
	for i := 0; i < 50; i++ {
		v += rng.NormFloat64()
		grid = append(grid, []float32{float32(v), float32(v + rng.NormFloat64()*0.1)})
	}
	size := func(bound ErrorBound) int {
		m := GorillaType{}.New(bound, 2)
		for _, row := range grid {
			m.Append(row)
		}
		params, err := m.Bytes(len(grid))
		if err != nil {
			t.Fatal(err)
		}
		return len(params)
	}
	lossless, one, five := size(RelBound(0)), size(RelBound(1)), size(RelBound(5))
	if !(five <= one && one*2 < lossless) {
		t.Fatalf("stream bytes at 0/1/5 %%: %d/%d/%d, want 5 %% <= 1 %% < half of 0 %%", lossless, one, five)
	}
}

// refZeroMantissa is the bit-at-a-time quantizer zeroMantissa replaced:
// for k = 1..23 it clears the low k mantissa bits, truncating or else
// rounding away from zero, and keeps the last candidate at most d
// away. An up-rounding that reaches the all-ones exponent is no
// candidate.
func refZeroMantissa(b uint32, d float64) uint32 {
	v := float64(math.Float32frombits(b))
	best := b
	for k := uint(1); k <= 23; k++ {
		mask := uint32(1)<<k - 1
		down := b &^ mask
		if math.Abs(float64(math.Float32frombits(down))-v) <= d {
			best = down
			continue
		}
		up := (b | mask) + 1
		if up&f32ExpMask != f32ExpMask && math.Abs(float64(math.Float32frombits(up))-v) <= d {
			best = up
			continue
		}
		break
	}
	return best
}

// TestZeroMantissaMatchesReference checks the closed-form bit count
// against the bit-at-a-time reference over random bit patterns, every
// binade, denormals and the edges of the mantissa.
func TestZeroMantissaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(b uint32, d float64) {
		if got, want := zeroMantissa(b, d), refZeroMantissa(b, d); got != want {
			t.Fatalf("zeroMantissa(%#08x, %g) = %#08x, reference %#08x", b, d, got, want)
		}
	}
	edges := []uint32{0, 1, 0x7fffff, 0x800000, 0x3f800000, 0x3fffffff, 0x7f7fffff, 0x7f7ffff0, 0x7f000001, 0x80000001, 0xff7fffff}
	for trial := 0; trial < 200000; trial++ {
		var b uint32
		switch trial % 4 {
		case 0:
			b = edges[rng.Intn(len(edges))] ^ uint32(rng.Intn(4))
		case 1:
			b = rng.Uint32() | 0xffff // low bits all ones: exercises the carry
		default:
			b = rng.Uint32()
		}
		if b&f32ExpMask == f32ExpMask {
			continue
		}
		v := math.Abs(float64(math.Float32frombits(b)))
		var d float64
		switch rng.Intn(4) {
		case 0:
			d = v * float64(rng.Intn(30)) / 100
		case 1:
			d = v * rng.Float64() * 3
		case 2:
			d = math.Ldexp(rng.Float64(), rng.Intn(300)-150)
		default:
			d = math.Ldexp(1, rng.Intn(280)-150) // an exact power of two
		}
		check(b, d)
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.MaxFloat64} {
		check(0x42c80000, d)
		check(0x7f7fffff, d)
	}
}

// FuzzGorillaBound appends arbitrary float32s at an arbitrary bound:
// every decoded value is the appended one bit for bit or within the
// bound of it, and a decoded value is ±Inf or NaN only when the
// appended one was that value exactly.
func FuzzGorillaBound(f *testing.F) {
	seed := func(values ...float32) []byte {
		out := make([]byte, 4*len(values))
		for i, v := range values {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out
	}
	f.Add(seed(100, 101, 99.5, 100.2), 1.0, true, uint8(1))
	f.Add(seed(0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 3), 5.0, true, uint8(2))
	f.Add(seed(math.MaxFloat32, -math.MaxFloat32, float32(math.NaN()), float32(math.Inf(-1))), 60.0, true, uint8(1))
	f.Add(seed(1, 2, 3, 4, 5, 6), 0.5, false, uint8(3))
	f.Add(seed(7, 7, 7, 7), 1e300, false, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, bound float64, relative bool, width uint8) {
		nseries := int(width%4) + 1
		length := len(data) / (4 * nseries)
		if length == 0 {
			return
		}
		eb := ErrorBound{Value: bound, Relative: relative}
		grid := make([][]float32, length)
		for i := range grid {
			grid[i] = make([]float32, nseries)
			for s := range grid[i] {
				grid[i][s] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i*nseries+s):]))
			}
		}
		checkWithin(t, eb, grid, gorillaFit(t, eb, nseries, grid))
	})
}

// foldOracle is the per-series loop the one-pass fold replaced.
func foldOracle(v *gorillaView, series, i0, i1 int) (sum, mn, mx float64) {
	mn = float64(v.ValueAt(series, i0))
	mx = mn
	for i := i0; i <= i1; i++ {
		f := float64(v.ValueAt(series, i))
		sum += f
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	return sum, mn, mx
}

// TestGorillaViewFoldMatchesLoop checks SumRange, MinRange and
// MaxRange against the per-series loop bit for bit, through the cached
// one-pass fold, the per-series fallback once the slots are full, and
// a view reused by ViewInto for other values over the same ranges.
func TestGorillaViewFoldMatchesLoop(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(31))
	grid := func(nseries, length int) [][]float32 {
		g := make([][]float32, length)
		for i := range g {
			g[i] = make([]float32, nseries)
			for s := range g[i] {
				switch rng.Intn(12) {
				case 0:
					g[i][s] = nan
				case 1:
					g[i][s] = inf
				case 2:
					g[i][s] = -inf
				case 3:
					g[i][s] = negZero
				default:
					g[i][s] = float32(rng.NormFloat64() * 1e3)
				}
			}
		}
		return g
	}
	check := func(name string, v *gorillaView) {
		t.Helper()
		// Every range of a short view, or a spread of ranges of a long
		// one: far more distinct ranges than the slots hold, each asked
		// for every series, in both orders.
		var ranges []foldRange
		for i0 := 0; i0 < v.length; i0 += 1 + v.length/12 {
			for i1 := i0; i1 < v.length; i1 += 1 + v.length/9 {
				ranges = append(ranges, foldRange{i0, i1})
			}
		}
		ranges = append(ranges, foldRange{0, v.length - 1})
		for _, r := range ranges {
			for s := 0; s < v.nseries; s++ {
				want := [3]float64{}
				want[0], want[1], want[2] = foldOracle(v, s, r.i0, r.i1)
				got := [3]float64{v.SumRange(s, r.i0, r.i1), v.MinRange(s, r.i0, r.i1), v.MaxRange(s, r.i0, r.i1)}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%s: series %d range %v: sum/min/max %v, loop %v", name, s, r, got, want)
					}
				}
			}
		}
	}
	first := [][]float32{{negZero, 0}, {0, negZero}, {negZero, 3}}
	check("-0 first", gorillaFit(t, RelBound(0), 2, first).(*gorillaView))
	check("NaN first", gorillaFit(t, RelBound(0), 1, [][]float32{{nan}, {1}, {-1}}).(*gorillaView))
	check("one tick", gorillaFit(t, RelBound(0), 3, [][]float32{{1, nan, -inf}}).(*gorillaView))
	check("one series", gorillaFit(t, RelBound(0), 1, grid(1, 40)).(*gorillaView))
	var reused AggView
	for trial := 0; trial < 20; trial++ {
		nseries, length := 1+rng.Intn(5), 1+rng.Intn(60)
		v := gorillaFit(t, RelBound(0), nseries, grid(nseries, length))
		check("random", v.(*gorillaView))
		// The same data through a reused view whose slots hold the
		// previous trial's folds over overlapping ranges.
		params := gorillaStreamOf(t, nseries, v)
		var err error
		if reused == nil {
			reused = v
			continue
		}
		if reused, err = (GorillaType{}).ViewInto(reused, params, nseries, length); err != nil {
			t.Fatal(err)
		}
		check("reused", reused.(*gorillaView))
	}
}

// gorillaStreamOf re-encodes a lossless view's values.
func gorillaStreamOf(t *testing.T, nseries int, v AggView) []byte {
	t.Helper()
	m := GorillaType{}.New(RelBound(0), nseries)
	row := make([]float32, nseries)
	for i := 0; i < v.Length(); i++ {
		for s := range row {
			row[s] = v.ValueAt(s, i)
		}
		m.Append(row)
	}
	params, err := m.Bytes(v.Length())
	if err != nil {
		t.Fatal(err)
	}
	return params
}
