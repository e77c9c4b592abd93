package models

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelardb/internal/bits"
)

func TestGorillaRoundTripExact(t *testing.T) {
	values := []float32{1.5, 1.5, 1.5001, -2.25, 0, 1e30, -1e-30, 3.14159, 3.14159}
	m := GorillaType{}.New(RelBound(0), 1)
	var grid [][]float32
	for _, v := range values {
		grid = append(grid, []float32{v})
	}
	if got := fitAll(m, grid); got != len(values) {
		t.Fatalf("fitted length = %d, want %d", got, len(values))
	}
	params, err := m.Bytes(len(values))
	if err != nil {
		t.Fatal(err)
	}
	view, err := GorillaType{}.View(params, 1, len(values))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range values {
		if got := view.ValueAt(0, i); got != want {
			t.Fatalf("value %d = %g, want %g", i, got, want)
		}
	}
}

func TestGorillaGroupRoundTrip(t *testing.T) {
	// Correlated series produce small XOR deltas inside each time block
	// (§5.2, Fig. 10) but the reconstruction stays exact regardless.
	m := GorillaType{}.New(RelBound(0), 3)
	var grid [][]float32
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		base := float32(100 + rng.NormFloat64())
		grid = append(grid, []float32{base, base + 0.01, base - 0.02})
	}
	if got := fitAll(m, grid); got != 50 {
		t.Fatalf("fitted length = %d, want 50", got)
	}
	params, err := m.Bytes(50)
	if err != nil {
		t.Fatal(err)
	}
	view, err := GorillaType{}.View(params, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for s := 0; s < 3; s++ {
			if got := view.ValueAt(s, i); got != grid[i][s] {
				t.Fatalf("value (%d,%d) = %g, want %g", s, i, got, grid[i][s])
			}
		}
	}
}

func TestGorillaConstantCompressesToBits(t *testing.T) {
	m := GorillaType{}.New(RelBound(0), 1)
	for i := 0; i < 100; i++ {
		m.Append([]float32{42})
	}
	params, err := m.Bytes(100)
	if err != nil {
		t.Fatal(err)
	}
	// 32 bits + 99 zero bits = 17 bytes.
	if len(params) > 17 {
		t.Fatalf("constant series used %d bytes, want <= 17", len(params))
	}
}

func TestGorillaCorrelatedBeatsUncorrelatedLayout(t *testing.T) {
	// The MGC extension stores values in time-ordered blocks; with
	// correlated series the per-block deltas are small, so the grouped
	// stream must be smaller than three independent streams.
	rng := rand.New(rand.NewSource(3))
	const n = 200
	base := make([]float32, n)
	v := float32(100)
	for i := range base {
		v += float32(rng.NormFloat64() * 0.1)
		base[i] = v
	}
	group := GorillaType{}.New(RelBound(0), 3)
	var solos [3]Model
	for s := range solos {
		solos[s] = GorillaType{}.New(RelBound(0), 1)
	}
	for i := 0; i < n; i++ {
		vals := []float32{base[i], base[i], base[i]}
		group.Append(vals)
		for s := range solos {
			solos[s].Append(vals[s : s+1])
		}
	}
	gp, _ := group.Bytes(n)
	soloTotal := 0
	for s := range solos {
		sp, _ := solos[s].Bytes(n)
		soloTotal += len(sp)
	}
	if len(gp) >= soloTotal {
		t.Fatalf("grouped %d bytes >= solo total %d bytes", len(gp), soloTotal)
	}
}

func TestGorillaTruncatedBytes(t *testing.T) {
	m := GorillaType{}.New(RelBound(0), 2)
	var grid [][]float32
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		grid = append(grid, []float32{rng.Float32(), rng.Float32()})
	}
	fitAll(m, grid)
	params, err := m.Bytes(12)
	if err != nil {
		t.Fatal(err)
	}
	view, err := GorillaType{}.View(params, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for s := 0; s < 2; s++ {
			if view.ValueAt(s, i) != grid[i][s] {
				t.Fatalf("truncated value (%d,%d) mismatch", s, i)
			}
		}
	}
}

func TestGorillaViewAggregates(t *testing.T) {
	m := GorillaType{}.New(RelBound(0), 1)
	values := []float32{1, 5, 3, -2, 4}
	for _, v := range values {
		m.Append([]float32{v})
	}
	params, _ := m.Bytes(5)
	view, _ := GorillaType{}.View(params, 1, 5)
	if got := view.SumRange(0, 0, 4); math.Abs(got-11) > 1e-9 {
		t.Fatalf("SumRange = %g, want 11", got)
	}
	if got := view.MinRange(0, 0, 4); got != -2 {
		t.Fatalf("MinRange = %g, want -2", got)
	}
	if got := view.MaxRange(0, 1, 3); got != 5 {
		t.Fatalf("MaxRange = %g, want 5", got)
	}
}

func TestGorillaDecodeTruncatedStream(t *testing.T) {
	m := GorillaType{}.New(RelBound(0), 1)
	for i := 0; i < 10; i++ {
		m.Append([]float32{float32(i) * 1.7})
	}
	params, _ := m.Bytes(10)
	// Asking for more values than the stream holds must error, not hang.
	if _, err := gorillaDecodeInto(nil, params[:2], 10); err == nil {
		t.Fatal("decode of truncated stream must fail")
	}
}

// TestGorillaDecodeRejectsMalformed covers streams no encoder writes:
// each must be refused with an error, never decoded to values.
func TestGorillaDecodeRejectsMalformed(t *testing.T) {
	one := uint64(math.Float32bits(1))
	stream := func(fields ...[2]uint64) []byte {
		w := bits.NewWriter(16)
		for _, f := range fields {
			w.WriteBits(f[0], uint(f[1]))
		}
		return w.Bytes()
	}
	tests := []struct {
		name   string
		params []byte
		count  int
		short  bool
	}{
		{"window wider than 32 bits", wideWindowStream(), 2, false},
		// 32 + 2 + 6 bits: the 10-bit window header ends with the stream.
		{"truncated window", stream([2]uint64{one, 32}, [2]uint64{0b11, 2}, [2]uint64{0b000011, 6}), 2, true},
		{"truncated first value", []byte{0x3f, 0x80, 0}, 1, true},
		{"reused window before any was set", stream([2]uint64{one, 32}, [2]uint64{0b10, 2}, [2]uint64{0, 6}), 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := gorillaDecodeInto(nil, tt.params, tt.count)
			if err == nil {
				t.Fatalf("decoded %v, want an error", got)
			}
			if errors.Is(err, bits.ErrShortBuffer) != tt.short {
				t.Fatalf("err %v: errors.Is(ErrShortBuffer) = %v, want %v", err, !tt.short, tt.short)
			}
		})
	}
}

// TestGorillaViewIntoAllocatesNothing pins the scan path's contract:
// decoding into a view whose grid already has the capacity allocates
// nothing, and neither does folding a range once its slots exist.
func TestGorillaViewIntoAllocatesNothing(t *testing.T) {
	const nseries, length = 4, 100
	rng := rand.New(rand.NewSource(9))
	m := GorillaType{}.New(RelBound(0), nseries)
	for i := 0; i < length; i++ {
		m.Append([]float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()})
	}
	params, err := m.Bytes(length)
	if err != nil {
		t.Fatal(err)
	}
	view, err := GorillaType{}.View(params, nseries, length)
	if err != nil {
		t.Fatal(err)
	}
	view.SumRange(0, 0, length-1) // allocate the fold slots
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		if view, err = (GorillaType{}).ViewInto(view, params, nseries, length); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nseries; s++ {
			for _, r := range [][2]int{{0, length - 1}, {10, 20}, {3, 3}} {
				sink += view.SumRange(s, r[0], r[1]) + view.MinRange(s, r[0], r[1]) + view.MaxRange(s, r[0], r[1])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ViewInto and range folds allocated %.1f times per decode, want 0 (sink %g)", allocs, sink)
	}
}

// BenchmarkGorillaDecode decodes a 4-series, 100-interval segment of a
// random walk into a reused grid, the scan path's shape.
func BenchmarkGorillaDecode(b *testing.B) {
	const nseries, length = 4, 100
	rng := rand.New(rand.NewSource(1))
	m := GorillaType{}.New(RelBound(0), nseries)
	vals := make([]float32, nseries)
	base := float32(100)
	for i := 0; i < length; i++ {
		base += float32(rng.NormFloat64())
		for s := range vals {
			vals[s] = base + float32(rng.NormFloat64()*0.1)
		}
		m.Append(vals)
	}
	params, err := m.Bytes(length)
	if err != nil {
		b.Fatal(err)
	}
	grid := make([]float32, 0, nseries*length)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if grid, err = gorillaDecodeInto(grid[:0], params, nseries*length); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nseries*length), "ns/value")
}

func TestGorillaRejectsWrongWidth(t *testing.T) {
	m := GorillaType{}.New(RelBound(0), 2)
	if m.Append([]float32{1}) {
		t.Fatal("append with wrong series count must be rejected")
	}
}

// TestGorillaQuickRoundTrip checks exact reconstruction of arbitrary
// float32 grids, including special values.
func TestGorillaQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nseries := rng.Intn(4) + 1
		length := rng.Intn(60) + 1
		m := GorillaType{}.New(RelBound(0), nseries)
		grid := make([][]float32, length)
		for i := range grid {
			vals := make([]float32, nseries)
			for s := range vals {
				switch rng.Intn(10) {
				case 0:
					vals[s] = 0
				case 1:
					vals[s] = float32(math.Inf(1))
				case 2:
					vals[s] = math.Float32frombits(rng.Uint32()) // may be NaN
				default:
					vals[s] = float32(rng.NormFloat64() * 100)
				}
			}
			grid[i] = vals
		}
		fitAll(m, grid)
		params, err := m.Bytes(length)
		if err != nil {
			return false
		}
		view, err := GorillaType{}.View(params, nseries, length)
		if err != nil {
			return false
		}
		for i := 0; i < length; i++ {
			for s := 0; s < nseries; s++ {
				got, want := view.ValueAt(s, i), grid[i][s]
				if math.Float32bits(got) != math.Float32bits(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGorillaAppend appends 4-series ticks of noise around 100,
// lossless and at a 1 % bound, where every value is quantized first.
func BenchmarkGorillaAppend(b *testing.B) {
	for _, bound := range []ErrorBound{RelBound(0), RelBound(1)} {
		b.Run("bound="+bound.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vals := make([]float32, 4)
			m := GorillaType{}.New(bound, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := range vals {
					vals[s] = float32(100 + rng.NormFloat64())
				}
				m.Append(vals)
				if m.Length() >= 1<<16 {
					m = GorillaType{}.New(bound, 4)
				}
			}
		})
	}
}

// BenchmarkGorillaViewFold decodes a segment of a quantized random walk
// into a reused view and folds SUM, MIN and MAX of every series over
// the whole segment, the scalar aggregate's shape on the scan path.
func BenchmarkGorillaViewFold(b *testing.B) {
	for _, nseries := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("series=%d", nseries), func(b *testing.B) {
			const length = 49
			rng := rand.New(rand.NewSource(1))
			m := GorillaType{}.New(RelBound(1), nseries)
			vals := make([]float32, nseries)
			base := 100.0
			for i := 0; i < length; i++ {
				base += rng.NormFloat64()
				for s := range vals {
					vals[s] = float32(base + rng.NormFloat64()*0.1)
				}
				m.Append(vals)
			}
			params, err := m.Bytes(length)
			if err != nil {
				b.Fatal(err)
			}
			view, err := GorillaType{}.View(params, nseries, length)
			if err != nil {
				b.Fatal(err)
			}
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if view, err = (GorillaType{}).ViewInto(view, params, nseries, length); err != nil {
					b.Fatal(err)
				}
				for s := 0; s < nseries; s++ {
					sink += view.SumRange(s, 0, length-1) + view.MinRange(s, 0, length-1) + view.MaxRange(s, 0, length-1)
				}
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN sink")
			}
		})
	}
}
