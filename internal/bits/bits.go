// Package bits provides the bit-level writer used by the Gorilla model
// and the segment codecs. The layout is big-endian within each byte:
// the first bit written becomes the most significant bit of the first
// byte.
//
// The Writer works a machine word at a time: it packs bits into a
// uint64 and appends whole 32-bit words. The bytes produced are the
// same as a bit-at-a-time implementation would produce. Decoders read
// the layout themselves (the Gorilla kernel keeps its own word
// accumulator); this package's tests keep a Reader that checks the
// Writer's round trip.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer reports a bit stream that ends before a decoder has
// read all the bits it needs.
var ErrShortBuffer = errors.New("bits: read past end of buffer")

// Writer accumulates bits into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf []byte // whole 32-bit words written so far
	// acc holds the n pending bits, left-aligned; the bits below them
	// are zero. n < 32 between calls.
	acc uint64
	n   uint
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(bit bool) {
	if bit {
		w.acc |= 1 << (63 - w.n)
	}
	w.n++
	if w.n == 32 {
		w.flushWord()
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bits: WriteBits with n=%d > 64", n))
	}
	if n > 32 {
		w.write(v>>32, n-32)
		n = 32
	}
	w.write(v, n)
}

// write appends the low n <= 32 bits of v. Shifting v left by 64-n
// drops every bit above the n written, so v needs no mask.
func (w *Writer) write(v uint64, n uint) {
	w.acc |= v << (64 - n) >> w.n
	w.n += n
	if w.n >= 32 {
		w.flushWord()
	}
}

// flushWord moves the top 32 pending bits to buf.
func (w *Writer) flushWord() {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>32))
	w.acc <<= 32
	w.n -= 32
}

// Len returns the number of complete or partial bytes written.
func (w *Writer) Len() int { return len(w.buf) + int(w.n+7)/8 }

// BitLen returns the exact number of bits written.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.n) }

// Bytes returns the written bytes. Unused trailing bits are zero.
// The returned slice aliases the writer's buffer and is valid until
// the next write.
func (w *Writer) Bytes() []byte {
	// The pending bits are stored past len(buf) without being counted,
	// so a later flushWord overwrites them with the same prefix.
	out := binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>32))
	w.buf = out[:len(w.buf)]
	return out[:w.Len()]
}

// Clone returns a deep copy of the writer, so a model candidate can be
// snapshotted while fitting continues.
func (w *Writer) Clone() *Writer {
	c := *w
	c.buf = make([]byte, len(w.buf), cap(w.buf))
	copy(c.buf, w.buf)
	return &c
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	*w = Writer{buf: w.buf[:0]}
}
