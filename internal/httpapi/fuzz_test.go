package httpapi

import "testing"

// FuzzRemoteWriteBody feeds arbitrary bytes through the remote-write
// body's two decoders as the endpoint does — snappyDecode, then
// decodeWriteRequest on what it produced — and the raw bytes straight
// to decodeWriteRequest too. Neither may panic, and each allocates at
// most a small multiple of its own input plus a constant: snappy's
// declared length is only a claim, and the decoded bytes a legitimate
// block produces are at most about 21 times its input (a 3-byte copy
// element yields 64 bytes).
func FuzzRemoteWriteBody(f *testing.F) {
	proto := encodeWriteRequest(sampleSeries())
	f.Add(snappyEncode(proto))
	f.Add(proto)
	for _, block := range snappyCopyBlocks {
		f.Add(block)
	}
	f.Add(hostileSnappyBody())
	f.Add([]byte{})
	// bounded reports whether decode allocated at most 256 bytes per
	// input byte plus 64 KiB.
	bounded := func(in []byte, decode func()) bool {
		before := totalAlloc()
		decode()
		return totalAlloc()-before <= uint64(256*len(in)+64<<10)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw []byte
		var err error
		if !bounded(data, func() { raw, err = snappyDecode(data) }) {
			t.Fatalf("snappyDecode of %d bytes allocated too much", len(data))
		}
		inputs := [][]byte{data}
		if err == nil {
			inputs = append(inputs, raw)
		}
		for _, in := range inputs {
			if !bounded(in, func() { decodeWriteRequest(in) }) {
				t.Fatalf("decodeWriteRequest of %d bytes allocated too much", len(in))
			}
		}
	})
}
