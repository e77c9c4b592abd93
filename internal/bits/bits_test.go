package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []bool{true, false, true, true, false, false, true, false, true, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got := w.BitLen(); got != len(pattern) {
		t.Fatalf("BitLen = %d, want %d", got, len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteBitsKnownLayout(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0b101, 3)
	w.WriteBits(0b01, 2)
	w.WriteBits(0b110, 3)
	// Expect 10101110 in the single byte.
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10101110 {
		t.Fatalf("bytes = %08b, want 10101110", got)
	}
}

func TestWriteBitsCrossByteBoundary(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(0x5, 3) // 101
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(16)
	if err != nil || v != 0xABCD {
		t.Fatalf("ReadBits(16) = %x, %v; want abcd", v, err)
	}
	v, err = r.ReadBits(3)
	if err != nil || v != 0x5 {
		t.Fatalf("ReadBits(3) = %b, %v; want 101", v, err)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first read failed: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	if _, err := r.ReadBits(4); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestShortReadConsumesNothing(t *testing.T) {
	r := NewReader([]byte{0b10110110, 0xFF, 0x01})
	if _, err := r.ReadBits(20); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(5); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	if v, err := r.ReadBits(4); err != nil || v != 0b0001 {
		t.Fatalf("ReadBits(4) after a short read = %04b, %v; want 0001", v, err)
	}
}

func TestZeroWidthWrites(t *testing.T) {
	w := NewWriter(1)
	w.WriteBits(0xFFFF, 0)
	if w.BitLen() != 0 {
		t.Fatalf("BitLen after zero-width write = %d", w.BitLen())
	}
	r := NewReader(w.Bytes())
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
}

func TestFull64BitValue(t *testing.T) {
	w := NewWriter(16)
	const v = uint64(0xDEADBEEFCAFEBABE)
	w.WriteBit(true) // misalign on purpose
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(64)
	if err != nil || got != v {
		t.Fatalf("ReadBits(64) = %x, %v; want %x", got, err, v)
	}
}

func TestClone(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b1011, 4)
	c := w.Clone()
	w.WriteBits(0b1111, 4)
	if c.BitLen() != 4 {
		t.Fatalf("clone BitLen = %d, want 4", c.BitLen())
	}
	// Mutating the original must not affect the clone.
	if c.Bytes()[0] != 0b10110000 {
		t.Fatalf("clone bytes = %08b", c.Bytes()[0])
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.BitLen() != 0 || w.Len() != 0 {
		t.Fatalf("after Reset: BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
	w.WriteBit(true)
	if w.Bytes()[0] != 0b10000000 {
		t.Fatalf("after Reset write: %08b", w.Bytes()[0])
	}
}

// TestRoundTripQuick verifies that any sequence of variable-width writes
// reads back identically.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		widths := make([]uint, count)
		values := make([]uint64, count)
		w := NewWriter(64)
		for i := 0; i < count; i++ {
			widths[i] = uint(rng.Intn(64) + 1)
			values[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				values[i] = rng.Uint64()
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemaining(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0x1F, 5)
	r := NewReader(w.Bytes())
	if r.Remaining() != 8 { // one padded byte
		t.Fatalf("Remaining = %d, want 8", r.Remaining())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", r.Remaining())
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<15 {
			w.Reset()
		}
		w.WriteBits(uint64(i), uint(i%64)+1)
	}
}

func BenchmarkReaderReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 13)
	}
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 13 {
			r = NewReader(data)
		}
		if _, err := r.ReadBits(13); err != nil {
			b.Fatal(err)
		}
	}
}
