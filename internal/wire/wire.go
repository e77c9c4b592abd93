// Package wire is the one bounds-checked byte reader behind every
// decoder of bytes that come from disk or from a peer: the cluster's
// frames and call bodies, the partial-result chunks, the WAL's records
// and checkpoint, and the remote-write protobuf. One reader means one
// set of rules — a count the bytes cannot hold, a truncated field and
// (where the decoder asks) trailing bytes are refused the same way
// everywhere.
//
// Multi-byte fixed-width integers are little-endian; counts and
// lengths are unsigned varints.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrMalformed refuses bytes the matching encoder did not write.
var ErrMalformed = errors.New("wire: malformed input")

// Reader is a bounds-checked cursor over a byte slice. Its error is
// sticky: after the first failure every read returns its zero value,
// so a decoder reads a whole structure and checks Err (or End) once,
// at its end.
//
// It advances an offset instead of reslicing b: storing a slice
// through the pointer takes a GC write barrier on every read, which
// made an allocation-heavy DecodePartial about 10 % slower.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail marks the input malformed; every later read returns zero.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrMalformed
	}
	r.off = len(r.b)
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// End refuses unread bytes and returns the reader's error.
func (r *Reader) End() error {
	if r.off != len(r.b) {
		r.Fail()
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.Fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.Len() < 4 {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.Len() < 8 {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64 from its little-endian IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads an element count and refuses one the unread bytes
// cannot hold at minSize bytes per element, so a corrupt count cannot
// drive an allocation.
func (r *Reader) Count(minSize int) int {
	v := r.Uvarint()
	if v > uint64(r.Len()/max(minSize, 1)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Next reads the next n bytes, aliasing the input.
func (r *Reader) Next(n int) []byte {
	if r.err != nil || n < 0 || n > r.Len() {
		r.Fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Bytes reads a uvarint length and that many bytes, aliasing the
// input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail()
		return nil
	}
	return r.Next(int(n))
}

// String reads a uvarint length and that many bytes as a string; the
// string is a copy, never an alias of the input.
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest reads every unread byte, aliasing the input.
func (r *Reader) Rest() []byte { return r.Next(r.Len()) }

// AppendString appends s as a uvarint length and its bytes: the
// encoding Bytes and String read.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
