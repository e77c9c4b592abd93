package query

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkAppendFloat fails t when appendFloat spells v other than
// strconv does.
func checkAppendFloat(t *testing.T, v float64) {
	t.Helper()
	got := appendFloat([]byte("x"), v)
	want := strconv.AppendFloat([]byte("x"), v, 'g', -1, 64)
	if string(got) != string(want) {
		t.Fatalf("appendFloat(%#x) = %q, strconv writes %q", math.Float64bits(v), got[1:], want[1:])
	}
}

// TestAppendFloatMatchesStrconv checks appendFloat against strconv on a
// strided sample of the float32 patterns, on every boundary class of
// the fast path and on float64 values that are not float32-exact.
// `make float-sweep` checks all 2^32 float32 patterns.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	// About 1 M float32 patterns; the odd stride walks every exponent
	// and both signs with varied mantissas.
	for u := uint64(0); u < 1<<32; u += 4093 {
		checkAppendFloat(t, float64(math.Float32frombits(uint32(u))))
	}
	rng := rand.New(rand.NewSource(1))
	f32 := func(sign, exp, mant uint32) float64 {
		return float64(math.Float32frombits(sign<<31 | exp<<23 | mant))
	}
	for _, sign := range []uint32{0, 1} {
		// ±0, ±Inf, NaN and float32 subnormals.
		for _, mant := range []uint32{0, 1, 2, 3, 0x400000, 0x7ffffe, 0x7fffff, rng.Uint32() & 0x7fffff} {
			checkAppendFloat(t, f32(sign, 0, mant))
			checkAppendFloat(t, f32(sign, 0xff, mant))
		}
		for exp := uint32(1); exp < 0xff; exp++ {
			// Mantissa 0, where the interval below is half as wide,
			// its neighbours and the binade's top.
			for _, mant := range []uint32{0, 1, 2, 0x7ffffe, 0x7fffff} {
				checkAppendFloat(t, f32(sign, exp, mant))
			}
		}
		// The first and last fast-path exponents and their neighbours,
		// densely.
		for _, e2 := range []int{floatMinExp2 - 1, floatMinExp2, floatMinExp2 + 1, floatMaxExp2 - 1, floatMaxExp2, floatMaxExp2 + 1} {
			exp := uint32(e2 + 127)
			for mant := uint32(0); mant < 1<<23; mant += 61 {
				checkAppendFloat(t, f32(sign, exp, mant))
			}
		}
	}
	// Powers of ten and of two, and decimals with few digits: the
	// exact and the short spellings.
	for k := -45; k <= 45; k++ {
		checkAppendFloat(t, float64(float32(math.Pow(10, float64(k)))))
		checkAppendFloat(t, math.Pow(10, float64(k)))
		checkAppendFloat(t, math.Ldexp(1, k))
	}
	for i := 1; i <= 100000; i++ {
		checkAppendFloat(t, float64(i))
		checkAppendFloat(t, float64(float32(float64(i)/100)))
		checkAppendFloat(t, float64(float32(i))*65536)
	}
	// Not float32-exact: a scaled series' float64(x)/scale, SUM
	// results over float32 values, and arbitrary float64 bits.
	for i := 0; i < 100000; i++ {
		x := float32(100 * math.Sin(float64(i)/50))
		for _, scale := range []float64{3, 10, 100, 1000} {
			checkAppendFloat(t, float64(x)/scale)
		}
	}
	for i := 0; i < 1000; i++ {
		var sum float64
		for j := 0; j < 1+rng.Intn(500); j++ {
			sum += float64(float32(rng.NormFloat64() * 1000))
		}
		checkAppendFloat(t, sum)
		checkAppendFloat(t, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.MaxFloat32,
		math.SmallestNonzeroFloat32, 0x1p-126, 113.40391540527344, 1e-5, 1234567,
	} {
		checkAppendFloat(t, v)
	}
}

// FuzzAppendFloat checks appendFloat against strconv on arbitrary
// float64 bits and on their float32 rounding, which the fast path
// takes when it is in range.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -1, 0.1, 113.40391540527344, 1e-5, 1e6, 1e21, 0x1p-36, 0x1p53, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		checkAppendFloat(t, v)
		checkAppendFloat(t, float64(float32(v)))
	})
}

// appendFloatBenchValues are the cells BenchmarkQueryCSV (in
// internal/httpapi) renders: loadRange's lossless sine values in the
// selected range, 24 000 float32 values widened to float64.
func appendFloatBenchValues() []float64 {
	vs := make([]float64, 0, 24000)
	for i := 1000; i < 13000; i++ {
		for tid := 1; tid <= 2; tid++ {
			vs = append(vs, float64(float32(100*math.Sin(float64(i)/50+float64(tid)))))
		}
	}
	return vs
}

// BenchmarkAppendFloat renders BenchmarkQueryCSV's values with the
// kernel and with strconv; ns/value is one cell's cost.
func BenchmarkAppendFloat(b *testing.B) {
	vs := appendFloatBenchValues()
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"kernel", appendFloat},
		{"strconv", func(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			for range b.N {
				for _, v := range vs {
					buf = bc.fn(buf[:0], v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/value")
		})
	}
}
