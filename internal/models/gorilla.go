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

// GorillaType is the lossless floating-point compression of Pelkonen et
// al. with the MGC extension of §5.2: the values of all series in a
// group are stored in time-ordered blocks, one block per sampling
// interval, so correlated series XOR against each other's nearly equal
// values and encode in a few bits each.
type GorillaType struct{}

// MID implements ModelType.
func (GorillaType) MID() MID { return MidGorilla }

// Name implements ModelType.
func (GorillaType) Name() string { return "Gorilla" }

// New implements ModelType.
func (GorillaType) New(bound ErrorBound, nseries int) Model {
	m := &gorillaModel{nseries: nseries}
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
// the checks before each field catch a stream that runs out. Shift
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
	out := append(slices.Grow(dst, count), math.Float32frombits(prev))
	var (
		acc   uint64
		n     uint
		pos   = 4
		mlen  uint // meaningful bits of the current window; 0 = none yet
		trail uint // trailing zeros of the current window
	)
	for i := 1; i < count; i++ {
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
		ctrl := acc >> 63
		acc <<= 1
		n--
		if ctrl == 0 {
			out = append(out, math.Float32frombits(prev))
			continue
		}
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
// sampling interval. Being lossless it can always fit more values; the
// segment generator bounds its growth with the model length limit.
type gorillaModel struct {
	nseries int
	length  int
	enc     gorillaEncoder
}

func (m *gorillaModel) Append(values []float32) bool {
	if len(values) != m.nseries {
		return false
	}
	for _, v := range values {
		m.enc.append(v)
	}
	m.length++
	return true
}

func (m *gorillaModel) Length() int { return m.length }

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
	// prefix is shorter than the fitted length, which lossless Gorilla
	// never triggers during normal ingestion.
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

// gorillaView serves aggregates from the decoded value grid, stored
// interval-major: values[i*nseries+series].
type gorillaView struct {
	values  []float32
	nseries int
	length  int
}

func (v *gorillaView) Length() int    { return v.length }
func (v *gorillaView) NumSeries() int { return v.nseries }

func (v *gorillaView) ValueAt(series, i int) float32 {
	return v.values[i*v.nseries+series]
}

func (v *gorillaView) SumRange(series, i0, i1 int) float64 {
	sum := 0.0
	for i := i0; i <= i1; i++ {
		sum += float64(v.values[i*v.nseries+series])
	}
	return sum
}

func (v *gorillaView) MinRange(series, i0, i1 int) float64 {
	mn := float64(v.values[i0*v.nseries+series])
	for i := i0 + 1; i <= i1; i++ {
		if f := float64(v.values[i*v.nseries+series]); f < mn {
			mn = f
		}
	}
	return mn
}

func (v *gorillaView) MaxRange(series, i0, i1 int) float64 {
	mx := float64(v.values[i0*v.nseries+series])
	for i := i0 + 1; i <= i1; i++ {
		if f := float64(v.values[i*v.nseries+series]); f > mx {
			mx = f
		}
	}
	return mx
}
