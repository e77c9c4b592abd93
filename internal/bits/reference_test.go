package bits

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// refWriter and refReader are the byte-at-a-time implementations the
// word-at-a-time Writer and Reader replaced, kept as the oracle for the
// bit layout: the first bit written is the most significant bit of the
// first byte, and the trailing partial byte is zero-padded.
type refWriter struct {
	buf  []byte
	free uint // unused low bits in the last byte of buf
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := min(w.free, n)
		chunk := byte(v>>(n-take)) & (1<<take - 1)
		w.buf[len(w.buf)-1] |= chunk << (w.free - take)
		w.free -= take
		n -= take
	}
}

func (w *refWriter) BitLen() int { return len(w.buf)*8 - int(w.free) }

type refReader struct {
	buf  []byte
	pos  int
	used uint // consumed bits of buf[pos]
}

// ReadBits consumes n bits; unlike Reader, a short read may consume
// some of them before failing.
func (r *refReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrShortBuffer
		}
		avail := 8 - r.used
		take := min(avail, n)
		chunk := r.buf[r.pos] >> (avail - take) & (1<<take - 1)
		v = v<<take | uint64(chunk)
		r.used += take
		if r.used == 8 {
			r.used = 0
			r.pos++
		}
		n -= take
	}
	return v, nil
}

// randomWidth draws write and read widths around the edges the word
// accumulators have: empty, single bits, a 32-bit word and a full
// 64-bit value.
func randomWidth(rng *rand.Rand) uint {
	widths := []uint{0, 1, 5, 31, 32, 33, 63, 64}
	if rng.Intn(4) == 0 {
		return uint(rng.Intn(65))
	}
	return widths[rng.Intn(len(widths))]
}

// TestWriterMatchesReference makes random mixed-width writes and checks
// Bytes, Len and BitLen against the reference writer after every one,
// including a Clone taken in the middle of a word and a Reset.
func TestWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w, ref := NewWriter(rng.Intn(16)), &refWriter{}
		var clone *Writer
		var cloneBytes []byte
		var cloneBits int
		writes := rng.Intn(80)
		for i := 0; i < writes; i++ {
			v, n := rng.Uint64(), randomWidth(rng)
			if rng.Intn(3) == 0 {
				w.WriteBit(v&1 == 1)
				ref.WriteBits(v&1, 1)
			} else {
				w.WriteBits(v, n)
				ref.WriteBits(v, n)
			}
			if !bytes.Equal(w.Bytes(), ref.buf) || w.Len() != len(ref.buf) || w.BitLen() != ref.BitLen() {
				t.Fatalf("trial %d write %d: Bytes %x Len %d BitLen %d, want %x %d %d",
					trial, i, w.Bytes(), w.Len(), w.BitLen(), ref.buf, len(ref.buf), ref.BitLen())
			}
			if clone == nil && w.BitLen()%32 != 0 && rng.Intn(8) == 0 {
				clone = w.Clone()
				cloneBytes, cloneBits = bytes.Clone(ref.buf), ref.BitLen()
			}
		}
		if clone != nil {
			// Writing on through the clone must match the reference from
			// the same point, and must not have been disturbed by the
			// original's later writes.
			if !bytes.Equal(clone.Bytes(), cloneBytes) || clone.BitLen() != cloneBits {
				t.Fatalf("trial %d: clone Bytes %x BitLen %d, want %x %d", trial, clone.Bytes(), clone.BitLen(), cloneBytes, cloneBits)
			}
			cref := &refWriter{buf: cloneBytes, free: uint(len(cloneBytes)*8 - cloneBits)}
			clone.WriteBits(0x2d, 7)
			cref.WriteBits(0x2d, 7)
			if !bytes.Equal(clone.Bytes(), cref.buf) {
				t.Fatalf("trial %d: clone after write %x, want %x", trial, clone.Bytes(), cref.buf)
			}
		}
		w.Reset()
		if w.Len() != 0 || w.BitLen() != 0 || len(w.Bytes()) != 0 {
			t.Fatalf("trial %d: after Reset Len %d BitLen %d Bytes %x", trial, w.Len(), w.BitLen(), w.Bytes())
		}
		w.WriteBits(0x5, 3)
		if got := w.Bytes(); len(got) != 1 || got[0] != 0b10100000 {
			t.Fatalf("trial %d: write after Reset = %08b", trial, got)
		}
	}
}

// TestReaderMatchesReference reads random streams with random widths
// through both readers: every value matches, and both run short at the
// same read.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		r, ref := NewReader(buf), &refReader{buf: buf}
		for i := 0; ; i++ {
			n := randomWidth(rng)
			got, err := r.ReadBits(n)
			want, refErr := ref.ReadBits(n)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("trial %d read %d (%d bits): err %v, reference %v", trial, i, n, err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrShortBuffer) {
					t.Fatalf("trial %d: err %v, want ErrShortBuffer", trial, err)
				}
				break
			}
			if got != want {
				t.Fatalf("trial %d read %d (%d bits) = %x, want %x", trial, i, n, got, want)
			}
		}
	}
}
