// Package bits provides bit-level readers and writers used by the
// Gorilla model and the segment codecs. The layout is big-endian within
// each byte: the first bit written becomes the most significant bit of
// the first byte.
//
// Both sides work a machine word at a time: the Writer packs bits into
// a uint64 and appends whole 32-bit words, the Reader refills a uint64
// with one 8-byte load and falls back to single bytes only at the end
// of the buffer. The bytes produced are the same as a bit-at-a-time
// implementation would produce.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by Reader when more bits are requested than
// the underlying buffer holds.
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

// Reader consumes bits from a byte slice produced by Writer. A read
// that asks for more bits than remain returns ErrShortBuffer and
// consumes nothing.
type Reader struct {
	buf []byte
	pos int // next byte of buf not yet counted in n
	// acc holds the n unread loaded bits, left-aligned. The bits below
	// them are either zero or the stream bits that follow, so a refill
	// may OR the same bytes in again.
	acc uint64
	n   uint
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// refill loads as many whole bytes into acc as fit: one 8-byte load
// while 8 bytes remain, single bytes at the tail. Afterwards n >= 56
// or buf is exhausted.
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		r.pos += int(63-r.n) >> 3
		r.n |= 56
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.n == 0 {
		r.refill()
		if r.n == 0 {
			return false, ErrShortBuffer
		}
	}
	bit := r.acc>>63 != 0
	r.acc <<= 1
	r.n--
	return bit, nil
}

// ReadBits consumes n bits and returns them in the low bits of the result,
// most significant first. n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bits: ReadBits with n=%d > 64", n))
	}
	if r.Remaining() < int(n) {
		return 0, ErrShortBuffer
	}
	if n > 32 {
		hi := r.take(n - 32)
		return hi<<32 | r.take(32), nil
	}
	return r.take(n), nil
}

// take consumes n <= 32 bits that the caller has checked remain.
func (r *Reader) take(n uint) uint64 {
	if r.n < n {
		r.refill()
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.n)
}
