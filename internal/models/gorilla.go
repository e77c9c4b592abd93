package models

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"

	"modelardb/internal/bits"
)

// GorillaType is the floating-point XOR compression of Pelkonen et al.
// with the MGC extension of §5.2: the values of all series in a group
// are stored in time-ordered blocks, one block per sampling interval,
// so correlated series XOR against each other's nearly equal values
// and encode in a few bits each. At bound 0 it is lossless; at a
// non-zero bound it spends the bound on the values it stores (see
// gorillaModel.quantize), so like PMC and Swing it reconstructs every
// value within the bound, and only NaN and ±Inf are always kept
// exactly.
type GorillaType struct{}

// MID implements ModelType.
func (GorillaType) MID() MID { return MidGorilla }

// Name implements ModelType.
func (GorillaType) Name() string { return "Gorilla" }

// New implements ModelType.
func (GorillaType) New(bound ErrorBound, nseries int) Model {
	m := &gorillaModel{nseries: nseries, bound: bound}
	m.enc.w = bits.NewWriter(64)
	return m
}

// View implements ModelType: it decodes the value stream eagerly, so
// aggregates on Gorilla segments cost time linear in the range, unlike
// the constant-time PMC and Swing fast paths.
func (GorillaType) View(params []byte, nseries, length int) (AggView, error) {
	values, err := gorillaDecodeInto(nil, params, nseries*length)
	if err != nil {
		return nil, err
	}
	return &gorillaView{values: values, nseries: nseries, length: length}, nil
}

// ViewInto implements ViewReuser: the decoded value grid reuses the
// previous view's capacity, so a scan over many Gorilla segments pays
// for the grid allocation only while it is still growing.
func (t GorillaType) ViewInto(prev AggView, params []byte, nseries, length int) (AggView, error) {
	p, ok := prev.(*gorillaView)
	if !ok {
		return t.View(params, nseries, length)
	}
	values, err := gorillaDecodeInto(p.values[:0], params, nseries*length)
	if err != nil {
		return nil, err
	}
	p.values, p.nseries, p.length = values, nseries, length
	p.nfolds = 0
	return p, nil
}

// gorillaEncoder holds the XOR-compression state for a stream of
// float32 values.
type gorillaEncoder struct {
	w        *bits.Writer
	prev     uint32
	prevLead uint8
	prevMLen uint8 // meaningful bits of the previous window; 0 = no window yet
	count    int
}

func (e *gorillaEncoder) append(v float32) {
	b := math.Float32bits(v)
	if e.count == 0 {
		e.w.WriteBits(uint64(b), 32)
		e.prev = b
		e.count++
		return
	}
	xor := e.prev ^ b
	e.prev = b
	e.count++
	if xor == 0 {
		e.w.WriteBit(false)
		return
	}
	lead := uint8(mathbits.LeadingZeros32(xor))
	if lead > 31 {
		lead = 31
	}
	trail := uint8(mathbits.TrailingZeros32(xor))
	mlen := 32 - lead - trail
	if e.prevMLen != 0 && lead >= e.prevLead && trail >= 32-e.prevLead-e.prevMLen {
		// The meaningful bits fit in the previous window: control bits
		// 10, then the window's bits.
		prevTrail := 32 - e.prevLead - e.prevMLen
		e.w.WriteBits(uint64(0b10)<<e.prevMLen|uint64(xor>>prevTrail), uint(e.prevMLen)+2)
		return
	}
	// Control bits 11, the window's 5-bit lead and mlen-1, then its bits.
	header := uint64(0b11)<<10 | uint64(lead)<<5 | uint64(mlen-1)
	e.w.WriteBits(header<<mlen|uint64(xor>>trail), uint(mlen)+12)
	e.prevLead, e.prevMLen = lead, mlen
}

var (
	errGorillaShort      = fmt.Errorf("models: gorilla decode: %w", bits.ErrShortBuffer)
	errGorillaNoWindow   = errors.New("models: gorilla decode: reused window before any window was set")
	errGorillaWideWindow = errors.New("models: gorilla decode: window wider than 32 bits")
)

// gorillaDecodeInto reconstructs count float32 values from a stream
// produced by gorillaEncoder, appending to dst (pass dst[:0] to reuse
// its capacity).
//
// The first value is the stream's first 4 bytes. The rest is read
// through a local left-aligned accumulator with no call per field: its
// top n bits are unread, and the bits below them are either zero or the
// stream bits that follow, so a refill may OR the same bytes in again.
// One value takes at most 1 + 1 + 10 + 32 = 44 bits, so a single refill
// per value suffices: an 8-byte load leaves n >= 56, and at the tail
// the checks before each field catch a stream that runs out. A run of
// zero control bits — the repeats a constant stretch or a quantized
// stream is made of — is consumed at once: one LeadingZeros64 counts
// it, capped by the unread bits and the values still wanted. Shift
// counts are masked to the width they already fit so the compiler
// emits plain shifts.
func gorillaDecodeInto(dst []float32, params []byte, count int) ([]float32, error) {
	if count == 0 {
		return dst, nil
	}
	if len(params) < 4 {
		return nil, errGorillaShort
	}
	prev := binary.BigEndian.Uint32(params)
	end := len(dst) + count
	out := append(slices.Grow(dst, count), math.Float32frombits(prev))
	var (
		acc   uint64
		n     uint
		pos   = 4
		mlen  uint // meaningful bits of the current window; 0 = none yet
		trail uint // trailing zeros of the current window
	)
	for len(out) < end {
		if n < 44 {
			if pos+8 <= len(params) {
				acc |= binary.BigEndian.Uint64(params[pos:]) >> (n & 63)
				pos += int(63-n) >> 3
				n |= 56
			} else {
				for n <= 56 && pos < len(params) {
					acc |= uint64(params[pos]) << ((56 - n) & 63)
					pos++
					n += 8
				}
			}
		}
		if n < 1 {
			return nil, errGorillaShort
		}
		if acc>>63 == 0 {
			// A run of repeats: the leading zeros of acc, of which only
			// the top n are stream bits.
			run := min(uint(mathbits.LeadingZeros64(acc)), n, uint(end-len(out)))
			repeat := math.Float32frombits(prev)
			k := len(out)
			out = out[:k+int(run)]
			for j := k; j < len(out); j++ {
				out[j] = repeat
			}
			acc <<= run
			n -= run
			continue
		}
		acc <<= 1
		n--
		if n < 1 {
			return nil, errGorillaShort
		}
		newWindow := acc >> 63
		acc <<= 1
		n--
		if newWindow != 0 {
			if n < 10 {
				return nil, errGorillaShort
			}
			lead := uint(acc >> 59)
			mlen = uint(acc>>54&31) + 1
			acc <<= 10
			n -= 10
			if lead+mlen > 32 {
				// The encoder never writes one: the trailing-zero count
				// would be negative.
				return nil, errGorillaWideWindow
			}
			trail = 32 - lead - mlen
		} else if mlen == 0 {
			return nil, errGorillaNoWindow
		}
		if n < mlen {
			return nil, errGorillaShort
		}
		prev ^= uint32(acc>>((64-mlen)&63)) << (trail & 31)
		acc <<= mlen & 63
		n -= mlen
		out = append(out, math.Float32frombits(prev))
	}
	return out, nil
}

// gorillaModel appends the group's values in series order at each
// sampling interval. It never rejects a value, so it can always fit
// more; the segment generator bounds its growth with the model length
// limit. At a non-zero bound each value is quantized before it is
// encoded, so the stream holds the stored values, not the appended
// ones.
type gorillaModel struct {
	nseries int
	length  int
	bound   ErrorBound
	enc     gorillaEncoder
}

func (m *gorillaModel) Append(values []float32) bool {
	if len(values) != m.nseries {
		return false
	}
	for _, v := range values {
		if !m.bound.IsLossless() {
			v = m.quantize(v)
		}
		m.enc.append(v)
	}
	m.length++
	return true
}

// quantize returns the value the stream stores for v under a non-zero
// bound: the stream's previous value when it is finite and within the
// bound, as its XOR of 0 costs one bit; otherwise the value within the
// bound with the most low mantissa bits zero, whose XOR window is
// short. NaN and ±Inf pass through, as no interval admits anything
// else for them, and a finite value is never stored as one, which an
// infinite bound would admit. ErrorBound.Within, the predicate
// SegmentGenerator.verify applies, gates the result, so verify never
// shortens a candidate.
func (m *gorillaModel) quantize(v float32) float32 {
	b := math.Float32bits(v)
	if b&f32ExpMask == f32ExpMask {
		return v
	}
	real := float64(v)
	if m.enc.count > 0 && m.enc.prev&f32ExpMask != f32ExpMask {
		if p := math.Float32frombits(m.enc.prev); m.bound.Within(float64(p), real) {
			return p
		}
	}
	q := math.Float32frombits(zeroMantissa(b, m.bound.slack(real)))
	if !m.bound.Within(float64(q), real) {
		return v
	}
	return q
}

const (
	f32ExpMask  = 0xff << 23
	f32MantBits = 23
)

// zeroMantissa returns the finite float32 bits b with the most low
// mantissa bits zeroed, by truncating toward zero or rounding away from
// it, whose value is at most d away from b's. The count is read off
// the bound instead of trying each bit: in units of b's ulp the bound
// is t, with 2^(l-1) <= t < 2^l, so clearing the low l-1 bits always
// fits (they sum to less than 2^(l-1)). Truncating clears more only
// while the bits from l up are zero and the low l bits sum to at most
// t; rounding up clears more only while they are one and the low l
// bits are at most t short of the carry. Rounding up never carries
// into the all-ones exponent: that candidate is dropped, so the result
// is never ±Inf or NaN.
func zeroMantissa(b uint32, d float64) uint32 {
	// The ulp of b's binade; a denormal's is that of exponent 1.
	exp := max(b>>f32MantBits&0xff, 1)
	ulps := d * math.Float64frombits(uint64(1023+150-exp)<<52) // d / ulp, exactly
	if !(ulps >= 1) {
		return b
	}
	t := uint32(1 << f32MantBits)
	if ulps < 1<<f32MantBits {
		t = uint32(ulps)
	}
	l := uint(mathbits.Len32(t)) // 1..24
	mant := b & (1<<f32MantBits - 1)
	low, high := mant&(1<<l-1), mant>>l
	down := l - 1
	if low <= t {
		down = l + uint(mathbits.TrailingZeros32(high))
	}
	up := uint(0)
	if 1<<l-low <= t {
		up = l + uint(mathbits.TrailingZeros32(^high))
	}
	down, up = min(down, f32MantBits), min(up, f32MantBits)
	if up > down {
		if r := (b | (1<<up - 1)) + 1; r&f32ExpMask != f32ExpMask {
			return r
		}
	}
	return b &^ (1<<down - 1)
}

func (m *gorillaModel) Length() int { return m.length }

// Bytes returns the stream of the first length intervals. The stream
// holds the stored (quantized) values, so a prefix is the re-encoding
// of its decoded values, bit for bit what Append wrote for them.
func (m *gorillaModel) Bytes(length int) ([]byte, error) {
	if length < 1 || length > m.length {
		return nil, fmt.Errorf("models: Gorilla Bytes(%d) outside [1, %d]", length, m.length)
	}
	if length == m.length {
		out := make([]byte, m.enc.w.Len())
		copy(out, m.enc.w.Bytes())
		return out, nil
	}
	// Re-encode the prefix. This path is only taken when a verified
	// prefix is shorter than the fitted length, which Gorilla never
	// triggers during normal ingestion: every stored value is either
	// the appended one or within the bound of it.
	values, err := gorillaDecodeInto(nil, m.enc.w.Bytes(), length*m.nseries)
	if err != nil {
		return nil, err
	}
	enc := gorillaEncoder{w: bits.NewWriter(len(values))}
	for _, v := range values {
		enc.append(v)
	}
	out := make([]byte, enc.w.Len())
	copy(out, enc.w.Bytes())
	return out, nil
}

// gorillaFoldSlots is how many distinct ranges a view keeps folded: a
// scalar aggregate asks for one range per segment, a roll-up for one
// per time bucket the segment spans.
const gorillaFoldSlots = 4

// gorillaView serves aggregates from the decoded value grid, stored
// interval-major: values[i*nseries+series].
//
// The first SumRange, MinRange or MaxRange over a range folds the sum,
// minimum and maximum of every series over it at once, and the view
// keeps them for up to gorillaFoldSlots ranges until the next
// ViewInto, so the SUM, MIN and MAX of every series of a segment cost
// one pass per series, not three. A range asked for after the slots
// are full is folded for its one series. Either way the result is bit
// for bit the per-series loop's: the same additions and comparisons in
// the same order. The cache makes a view unsafe for concurrent use;
// each scan goroutine decodes into views of its own.
type gorillaView struct {
	values  []float32
	nseries int
	length  int

	folds  [gorillaFoldSlots]foldRange
	nfolds int
	// agg holds slot k's sums, minima and maxima at
	// agg[3*k*nseries:][:nseries], [nseries:][:nseries] and
	// [2*nseries:][:nseries].
	agg []float64
}

// foldRange is the inclusive interval range one fold slot holds.
type foldRange struct{ i0, i1 int }

func (v *gorillaView) Length() int    { return v.length }
func (v *gorillaView) NumSeries() int { return v.nseries }

// DecodedValues implements ValueDecoder: the whole grid is decoded.
func (v *gorillaView) DecodedValues() int { return len(v.values) }

func (v *gorillaView) ValueAt(series, i int) float32 {
	return v.values[i*v.nseries+series]
}

func (v *gorillaView) SumRange(series, i0, i1 int) float64 {
	sum, _, _ := v.fold(series, i0, i1)
	return sum
}

func (v *gorillaView) MinRange(series, i0, i1 int) float64 {
	_, mn, _ := v.fold(series, i0, i1)
	return mn
}

func (v *gorillaView) MaxRange(series, i0, i1 int) float64 {
	_, _, mx := v.fold(series, i0, i1)
	return mx
}

// fold returns the sum, minimum and maximum of series over [i0, i1]
// from the range's slot, folding every series into a free slot first
// when the range has none.
func (v *gorillaView) fold(series, i0, i1 int) (sum, mn, mx float64) {
	n := v.nseries
	k := 0
	for k < v.nfolds && v.folds[k] != (foldRange{i0, i1}) {
		k++
	}
	if k == len(v.folds) {
		return foldStrided(v.values[i0*n+series:(i1+1)*n], n)
	}
	if k == v.nfolds {
		v.foldAll(k, i0, i1)
	}
	slot := v.agg[3*k*n:]
	return slot[series], slot[n+series], slot[2*n+series]
}

// foldAll folds every series over [i0, i1] into slot k.
func (v *gorillaView) foldAll(k, i0, i1 int) {
	n := v.nseries
	if size := 3 * gorillaFoldSlots * n; len(v.agg) < size {
		v.agg = append(v.agg, make([]float64, size-len(v.agg))...)
	}
	slot := v.agg[3*k*n : 3*(k+1)*n]
	rows := v.values[i0*n : (i1+1)*n]
	for s := range n {
		slot[s], slot[n+s], slot[2*n+s] = foldStrided(rows[s:], n)
	}
	v.folds[k] = foldRange{i0, i1}
	v.nfolds = k + 1
}

// foldStrided is the per-series loop over vals[0], vals[stride], ...:
// the sum from +0 in order, and the first of the smallest and of the
// largest values. Its accumulators stay in registers, which measured
// faster than folding a whole row of series per step through memory.
func foldStrided(vals []float32, stride int) (sum, mn, mx float64) {
	mn = float64(vals[0])
	mx = mn
	for i := 0; i < len(vals); i += stride {
		f := float64(vals[i])
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
