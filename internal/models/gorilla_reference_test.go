package models

import (
	"bytes"
	"errors"
	"math"
	mathbits "math/bits"
	"math/rand"
	"testing"

	"modelardb/internal/bits"
)

// refBitReader reads the bits layout one bit at a time: the first bit
// is the most significant bit of the first byte. A read that asks for
// more bits than remain returns bits.ErrShortBuffer.
type refBitReader struct {
	buf []byte
	pos int // bits consumed
}

func (r *refBitReader) ReadBits(n uint) (uint64, error) {
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, bits.ErrShortBuffer
	}
	var v uint64
	for ; n > 0; n-- {
		v = v<<1 | uint64(r.buf[r.pos/8]>>(7-r.pos%8)&1)
		r.pos++
	}
	return v, nil
}

func (r *refBitReader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// refGorillaDecode is the field-at-a-time decoder the word-at-a-time
// gorillaDecodeInto replaced, reading through a bit-at-a-time reader.
// It is the oracle for values and for which malformed streams are
// refused; its only change from the original is the window check,
// which the original lacked.
func refGorillaDecode(params []byte, count int) ([]float32, error) {
	if count == 0 {
		return nil, nil
	}
	r := &refBitReader{buf: params}
	out := make([]float32, 0, count)
	first, err := r.ReadBits(32)
	if err != nil {
		return nil, errGorillaShort
	}
	prev := uint32(first)
	out = append(out, math.Float32frombits(prev))
	var lead, mlen uint
	for len(out) < count {
		ctrl, err := r.ReadBit()
		if err != nil {
			return nil, errGorillaShort
		}
		if !ctrl {
			out = append(out, math.Float32frombits(prev))
			continue
		}
		newWindow, err := r.ReadBit()
		if err != nil {
			return nil, errGorillaShort
		}
		if newWindow {
			l, err := r.ReadBits(5)
			if err != nil {
				return nil, errGorillaShort
			}
			ml, err := r.ReadBits(5)
			if err != nil {
				return nil, errGorillaShort
			}
			lead, mlen = uint(l), uint(ml)+1
			if lead+mlen > 32 {
				return nil, errGorillaWideWindow
			}
		} else if mlen == 0 {
			return nil, errGorillaNoWindow
		}
		m, err := r.ReadBits(mlen)
		if err != nil {
			return nil, errGorillaShort
		}
		prev ^= uint32(m) << (32 - lead - mlen)
		out = append(out, math.Float32frombits(prev))
	}
	return out, nil
}

// refGorillaEncode is the field-at-a-time encoder the fused writes of
// gorillaEncoder.append replaced: the oracle for the bit layout.
func refGorillaEncode(values []float32) []byte {
	w := bits.NewWriter(16)
	var prev uint32
	var prevLead, prevMLen uint
	for i, v := range values {
		b := math.Float32bits(v)
		xor := prev ^ b
		prev = b
		switch {
		case i == 0:
			w.WriteBits(uint64(b), 32)
		case xor == 0:
			w.WriteBit(false)
		default:
			w.WriteBit(true)
			lead := uint(mathbits.LeadingZeros32(xor))
			trail := uint(mathbits.TrailingZeros32(xor))
			if prevMLen != 0 && lead >= prevLead && trail >= 32-prevLead-prevMLen {
				w.WriteBit(false)
				w.WriteBits(uint64(xor>>(32-prevLead-prevMLen)), prevMLen)
				continue
			}
			w.WriteBit(true)
			w.WriteBits(uint64(lead), 5)
			w.WriteBits(uint64(32-lead-trail-1), 5)
			w.WriteBits(uint64(xor>>trail), 32-lead-trail)
			prevLead, prevMLen = lead, 32-lead-trail
		}
	}
	return w.Bytes()
}

// TestGorillaEncodeMatchesReference checks the encoder's bytes against
// the field-at-a-time reference on random walks with repeats, large
// jumps and arbitrary bit patterns.
func TestGorillaEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		values := make([]float32, 1+rng.Intn(200))
		v := float32(rng.NormFloat64() * 100)
		for i := range values {
			switch rng.Intn(6) {
			case 0: // repeat
			case 1:
				v = math.Float32frombits(rng.Uint32())
			default:
				v += float32(rng.NormFloat64())
			}
			values[i] = v
		}
		if got, want := gorillaStream(values), refGorillaEncode(values); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: encoder wrote %x, reference %x", trial, got, want)
		}
	}
}

// gorillaStream encodes values with the production encoder.
func gorillaStream(values []float32) []byte {
	enc := gorillaEncoder{w: bits.NewWriter(16)}
	for _, v := range values {
		enc.append(v)
	}
	return enc.w.Bytes()
}

// FuzzGorillaDecode feeds arbitrary streams and counts to the decoder
// and its reference: both return the same values, or both refuse the
// stream with the same error, and running out of bits stays an
// ErrShortBuffer.
func FuzzGorillaDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 9, 64, 400} {
		values := make([]float32, n)
		v := float32(100)
		for i := range values {
			v += float32(rng.NormFloat64())
			values[i] = v
			if rng.Intn(5) == 0 {
				values[i] = math.Float32frombits(rng.Uint32())
			}
		}
		stream := gorillaStream(values)
		f.Add(stream, uint16(n))
		f.Add(stream, uint16(n+1))
		f.Add(stream[:len(stream)/2], uint16(n))
	}
	// Runs of zero control bits: one of 64 and more, runs that cross a
	// refill of the accumulator, and runs into the stream's zero
	// padding, which decodes as repeats until the bytes run out.
	for _, runs := range [][]int{{199}, {63, 64, 65}, {40, 30, 50, 100}, {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}} {
		values := []float32{100}
		for k, run := range runs {
			for j := 0; j < run; j++ {
				values = append(values, values[len(values)-1])
			}
			values = append(values, float32(101+k))
		}
		stream := gorillaStream(values)
		f.Add(stream, uint16(len(values)))
		f.Add(stream, uint16(len(values)+7))
		f.Add(stream, uint16(len(values)+8*len(stream)))
		f.Add(stream[:len(stream)-1], uint16(len(values)))
	}
	f.Add(wideWindowStream(), uint16(2))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, params []byte, count uint16) {
		n := int(count % 4096)
		got, err := gorillaDecodeInto(nil, params, n)
		want, refErr := refGorillaDecode(params, n)
		if err != refErr {
			t.Fatalf("count %d: err %v, reference %v", n, err, refErr)
		}
		if err != nil {
			if errors.Is(err, bits.ErrShortBuffer) != (err == errGorillaShort) {
				t.Fatalf("count %d: short stream error %v does not wrap ErrShortBuffer", n, err)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("count %d: %d values, reference %d", n, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("count %d: value %d = %x, reference %x", n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// wideWindowStream holds 1.0 followed by a new window of lead 31 and
// 32 meaningful bits, which no encoder writes (31 + 32 > 32).
func wideWindowStream() []byte {
	w := bits.NewWriter(16)
	w.WriteBits(uint64(math.Float32bits(1)), 32)
	w.WriteBits(0b11, 2)
	w.WriteBits(31, 5)
	w.WriteBits(31, 5) // mlen-1
	w.WriteBits(0xFFFFFFFF, 32)
	return w.Bytes()
}
