package bits

import (
	"encoding/binary"
	"fmt"
)

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
