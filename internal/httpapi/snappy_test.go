package httpapi

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestSnappyRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello, snappy"),
		bytes.Repeat([]byte("modelardb"), 10_000), // needs the 2-length-byte literal tag
		make([]byte, 1<<16),
	}
	for _, src := range cases {
		dst, err := snappyDecode(snappyEncode(src))
		if err != nil {
			t.Fatalf("decode(encode(%d bytes)): %v", len(src), err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("round trip of %d bytes lost data", len(src))
		}
	}
}

// snappyCopyBlocks each decode to "abcdabcdabcd": a 4-byte literal
// followed by an overlapping 8-byte copy at offset 4, spelled with the
// 1-, 2- and 4-byte-offset copy tags in turn.
var snappyCopyBlocks = [][]byte{
	{12, (4-1)<<2 | 0x00, 'a', 'b', 'c', 'd', (8-4)<<2 | 0x01, 4},
	{12, (4-1)<<2 | 0x00, 'a', 'b', 'c', 'd', (8-1)<<2 | 0x02, 4, 0},
	{12, (4-1)<<2 | 0x00, 'a', 'b', 'c', 'd', (8-1)<<2 | 0x03, 4, 0, 0, 0},
}

// TestSnappyCopies decodes a hand-built block using each copy tag form,
// since our literal-only encoder never emits them.
func TestSnappyCopies(t *testing.T) {
	for _, block := range snappyCopyBlocks {
		if got, err := snappyDecode(block); err != nil || string(got) != "abcdabcdabcd" {
			t.Fatalf("copy tag %d: decode = %q, %v", block[6]&0x03, got, err)
		}
	}
}

func TestSnappyCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		block []byte
	}{
		{"empty", nil},
		{"truncated literal", []byte{4, (4 - 1) << 2, 'a'}},
		{"length mismatch", []byte{9, (4 - 1) << 2, 'a', 'b', 'c', 'd'}},
		{"zero offset", []byte{8, (4 - 1) << 2, 'a', 'b', 'c', 'd', (8 - 4) << 2, 0}},
		{"offset past start", []byte{8, (4 - 1) << 2, 'a', 'b', 'c', 'd', (8-4)<<2 | 0x01, 9}},
		{"overrun", []byte{4, (4 - 1) << 2, 'a', 'b', 'c', 'd', (8-4)<<2 | 0x01, 4}},
		{"huge declared length", append([]byte{0xff, 0xff, 0xff, 0xff, 0x07}, 0)},
	}
	for _, c := range cases {
		if _, err := snappyDecode(c.block); err == nil {
			t.Errorf("%s: decode succeeded, want error", c.name)
		}
	}
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// hostileSnappyBody declares the largest decoded length the decoder
// accepts and then carries a single one-byte literal.
func hostileSnappyBody() []byte {
	return append(binary.AppendUvarint(nil, maxSnappyDecodedLen), 0<<2, 'x')
}

// TestSnappyHostileLength: the declared length is only a claim. A
// 6-byte body declaring 64 MiB is refused as corrupt without
// allocating anywhere near the claim.
func TestSnappyHostileLength(t *testing.T) {
	body := hostileSnappyBody()
	before := totalAlloc()
	_, err := snappyDecode(body)
	alloc := totalAlloc() - before
	if err == nil {
		t.Fatalf("%d-byte body declaring %d bytes decoded", len(body), maxSnappyDecodedLen)
	}
	if alloc >= 1<<20 {
		t.Fatalf("%d-byte body allocated %d bytes", len(body), alloc)
	}
}

func TestRemoteWriteRejectsCorruptBody(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, body := post(t, ts.URL+"/api/v1/prom/write", "application/x-protobuf", "not snappy at all", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d body %q, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(body, "error") {
		t.Fatalf("body %q has no error", body)
	}
}
