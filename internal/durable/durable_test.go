package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// TestScanValidPrefix runs Scan over logs of AppendFrame output, clean
// and ending in each way a valid prefix can end, and checks the
// prefix's length and the payloads handed to fn.
func TestScanValidPrefix(t *testing.T) {
	var clean []byte
	for _, p := range []string{"one", "two", "three"} {
		clean = AppendFrame(clean, []byte(p))
	}
	// prefix is the first two frames, where every torn tail below
	// starts.
	prefix := clean[:2*FrameHeader+len("one")+len("two")]
	header := func(length uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, length)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := bytes.Clone(clean)
	flipped[len(prefix)+4] ^= 0x10 // a bit of the third frame's CRC
	refuse := errors.New("refused")
	for _, tc := range []struct {
		name string
		log  []byte
		// size is the size Scan is told; 0 means len(log).
		size   int64
		refuse string // the payload fn refuses
		valid  int
		seen   []string
	}{
		{name: "clean", log: clean, valid: len(clean), seen: []string{"one", "two", "three"}},
		{name: "length 0", log: join(prefix, header(0), make([]byte, 12)), valid: len(prefix), seen: []string{"one", "two"}},
		{name: "length above 1 GiB", log: join(prefix, header(1<<30+1), make([]byte, 12)), size: 1 << 31, valid: len(prefix), seen: []string{"one", "two"}},
		{name: "length past size", log: join(prefix, header(100), make([]byte, 12)), valid: len(prefix), seen: []string{"one", "two"}},
		{name: "flipped CRC bit", log: flipped, valid: len(prefix), seen: []string{"one", "two"}},
		{name: "fn refuses", log: clean, refuse: "two", valid: len(clean[:FrameHeader+len("one")]), seen: []string{"one", "two"}},
		{name: "header cut short", log: clean[:len(clean)-len("three")-3], valid: len(prefix), seen: []string{"one", "two"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.size
			if size == 0 {
				size = int64(len(tc.log))
			}
			var seen []string
			valid, err := Scan(bytes.NewReader(tc.log), size, func(payload []byte) error {
				seen = append(seen, string(payload))
				if string(payload) == tc.refuse {
					return refuse
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if valid != int64(tc.valid) || !reflect.DeepEqual(seen, tc.seen) {
				t.Fatalf("Scan = %d, saw %q; want %d, %q", valid, seen, tc.valid, tc.seen)
			}
		})
	}
}

// TestReplaceRoundTrip replaces a file twice on the operating system's
// file system and reads back each version, leaving no temp file.
func TestReplaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "meta")
	for _, data := range [][]byte{[]byte("first version"), []byte("second")} {
		if err := Replace(OS{}, name, data); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(OS{}, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %q after Replace, want %q", got, data)
		}
	}
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"meta"}) {
		t.Fatalf("directory holds %q, want only the replaced file", names)
	}
}
