package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// TestReaderTruncated: every primitive on too few bytes sets the
// sticky error and returns its zero value, and every later read
// returns zero too — although each case but the first leaves bytes a
// fresh reader could read.
func TestReaderTruncated(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		read func(r *Reader) bool // reports whether the value read is zero
	}{
		{"Byte", nil, func(r *Reader) bool { return r.Byte() == 0 }},
		{"Uvarint", []byte{0x80}, func(r *Reader) bool { return r.Uvarint() == 0 }},
		{"Uvarint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) bool { return r.Uvarint() == 0 }},
		{"Varint", []byte{0x80, 0x80}, func(r *Reader) bool { return r.Varint() == 0 }},
		{"U32", []byte{1, 2, 3}, func(r *Reader) bool { return r.U32() == 0 }},
		{"U64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) bool { return r.U64() == 0 }},
		{"F64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) bool { return r.F64() == 0 }},
		{"Count", []byte{3, 1, 1}, func(r *Reader) bool { return r.Count(1) == 0 }},
		{"Next", []byte{1, 2}, func(r *Reader) bool { return r.Next(3) == nil }},
		{"Next negative", []byte{1, 2}, func(r *Reader) bool { return r.Next(-1) == nil }},
		{"Bytes", []byte{3, 'a', 'b'}, func(r *Reader) bool { return r.Bytes() == nil }},
		{"String", []byte{3, 'a', 'b'}, func(r *Reader) bool { return r.String() == "" }},
	}
	for _, c := range cases {
		r := NewReader(c.b)
		if !c.read(r) {
			t.Errorf("%s: %x read a non-zero value", c.name, c.b)
		}
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: Err() = %v, want ErrMalformed", c.name, r.Err())
		}
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.U32() != 0 || r.U64() != 0 ||
			r.Count(1) != 0 || r.Next(0) != nil || r.Bytes() != nil || r.String() != "" || r.Rest() != nil || r.Len() != 0 {
			t.Errorf("%s: a read after the failure returned a value", c.name)
		}
		if !errors.Is(r.Err(), ErrMalformed) || !errors.Is(r.End(), ErrMalformed) {
			t.Errorf("%s: a later read cleared the error: %v", c.name, r.Err())
		}
	}
}

// TestReaderValues: each primitive reads what the matching encoder
// wrote, and End accepts a fully read input.
func TestReaderValues(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<60+3)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-2.5))
	b = AppendString(b, "hello")
	b = append(b, 'x', 'y')
	r := NewReader(b)
	if v := r.Byte(); v != 7 {
		t.Fatalf("Byte = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<60+3 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Rest(); string(v) != "xy" {
		t.Fatalf("Rest = %q", v)
	}
	if err := r.End(); err != nil || r.Len() != 0 {
		t.Fatalf("End = %v with %d bytes left", err, r.Len())
	}
}

// TestReaderCount: a count above Len()/minSize is refused, one at it
// is accepted.
func TestReaderCount(t *testing.T) {
	body := make([]byte, 12)
	for _, c := range []struct {
		count, minSize int
		ok             bool
	}{
		{3, 4, true},
		{4, 4, false},
		{12, 1, true},
		{13, 1, false},
		{0, 100, true},
		{1, 13, false},
		{1 << 40, 1, false},
	} {
		r := NewReader(append(binary.AppendUvarint(nil, uint64(c.count)), body...))
		got := r.Count(c.minSize)
		if c.ok && (got != c.count || r.Err() != nil) {
			t.Errorf("count %d at %d bytes each over 12: got %d, %v", c.count, c.minSize, got, r.Err())
		}
		if !c.ok && (got != 0 || r.Err() == nil) {
			t.Errorf("count %d at %d bytes each over 12 accepted as %d", c.count, c.minSize, got)
		}
	}
}

// TestReaderAliasing: Next and Bytes alias the input, String copies.
func TestReaderAliasing(t *testing.T) {
	b := []byte{2, 'a', 'b', 2, 'c', 'd', 'e'}
	r := NewReader(b)
	bs, s, next := r.Bytes(), r.String(), r.Next(1)
	if r.End() != nil {
		t.Fatal(r.Err())
	}
	b[1], b[4], b[6] = 'A', 'C', 'E'
	if string(bs) != "Ab" {
		t.Errorf("Bytes = %q after the input changed, want an alias", bs)
	}
	if s != "cd" {
		t.Errorf("String = %q after the input changed, want a copy", s)
	}
	if string(next) != "E" {
		t.Errorf("Next = %q after the input changed, want an alias", next)
	}
}

// TestReaderEnd: End refuses unread bytes.
func TestReaderEnd(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.End(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("End with a byte unread = %v, want ErrMalformed", err)
	}
	if r.Len() != 0 || r.Byte() != 0 {
		t.Fatal("the refused byte is still readable")
	}
}
