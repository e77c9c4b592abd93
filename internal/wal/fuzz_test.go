package wal

import (
	"bytes"
	"reflect"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/durable"
)

// frame returns one framed record, as Append writes it.
func frame(buf []byte, gid core.Gid, seq, ext uint64, pts []core.DataPoint) []byte {
	return durable.AppendFrame(buf, encodeRecord(nil, gid, seq, ext, pts))
}

// FuzzWALScanSegment drives the WAL's record parser (scanRecords: the
// shared frame scan → decodeRecord) with arbitrary segment bytes:
// whatever the input, the scan must not panic, must report a valid
// prefix inside the input, and re-scanning exactly that prefix must be
// a fixpoint — the same records, the same offset. That is the recovery
// invariant the torn-tail byte sweeps assert for real crashes; the
// fuzzer hunts for byte patterns the sweeps do not produce. The seed
// corpus is built the way the sweeps build theirs: valid records,
// truncations at varied offsets, and a mid-payload bit flip.
func FuzzWALScanSegment(f *testing.F) {
	var valid []byte
	valid = frame(valid, 1, 1, 0, []core.DataPoint{{Tid: 1, TS: 0, Value: 1}})
	valid = frame(valid, 2, 1, 7, []core.DataPoint{
		{Tid: 3, TS: 1000, Value: -2.5},
		{Tid: 4, TS: 1000, Value: 3},
	})
	valid = frame(valid, 1, 2, 2, pts(2, 5000, 5))
	f.Add(valid)
	for cut := 1; cut < len(valid); cut += 5 {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			gid      core.Gid
			seq, ext uint64
			n        int
		}
		scan := func(data []byte) ([]rec, int64) {
			var recs []rec
			off, err := scanRecords(bytes.NewReader(data), int64(len(data)), func(gid core.Gid, seq, ext uint64, pts []core.DataPoint) {
				recs = append(recs, rec{gid, seq, ext, len(pts)})
			})
			if err != nil {
				t.Fatalf("scanRecords errored on fuzz input: %v", err)
			}
			return recs, off
		}
		first, validOff := scan(data)
		if validOff < 0 || validOff > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", validOff, len(data))
		}
		// Fixpoint: the recovered prefix recovers to itself.
		second, validOff2 := scan(data[:validOff])
		if validOff2 != validOff || len(second) != len(first) {
			t.Fatalf("re-scan of valid prefix: offset %d records %d, want %d records at %d",
				validOff2, len(second), len(first), validOff)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("record %d differs across scans: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}

// FuzzWALCheckpoint feeds arbitrary bytes to the two small-file
// parsers Open reads before any segment: the checkpoint (one frame of
// a store offset and two sequence maps) and walmeta ("2 <shards>").
// Neither may panic. A checkpoint that parses must survive a round
// trip — re-encoded, it parses to the same state and re-encodes to the
// same bytes — and a walmeta that parses must pin a positive shard
// count. The seeds are a real checkpoint, its truncations, a bit flip
// and the walmeta spellings past and present.
func FuzzWALCheckpoint(f *testing.F) {
	ckpt := encodeCheckpoint(12345, map[core.Gid]uint64{1: 3, 7: 9}, map[core.Gid]uint64{1: 2})
	f.Add(ckpt)
	for cut := 1; cut < len(ckpt); cut += 3 {
		f.Add(append([]byte(nil), ckpt[:cut]...))
	}
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)
	for _, meta := range []string{"2 8", "8", "3 8", "2 0", "2 x", "", "2 8 8"} {
		f.Add([]byte(meta))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if off, seqs, applied, err := decodeCheckpoint(data); err == nil {
			enc := encodeCheckpoint(off, seqs, applied)
			off2, seqs2, applied2, err := decodeCheckpoint(enc)
			if err != nil || off2 != off || !reflect.DeepEqual(seqs2, seqs) || !reflect.DeepEqual(applied2, applied) {
				t.Fatalf("checkpoint round trip: %d %v %v (%v), want %d %v %v", off2, seqs2, applied2, err, off, seqs, applied)
			}
			if again := encodeCheckpoint(off2, seqs2, applied2); !bytes.Equal(again, enc) {
				t.Fatal("re-encoding a checkpoint changed its bytes")
			}
		}
		if n, err := parseMeta(data); err == nil && n < 1 {
			t.Fatalf("walmeta %q parsed to %d shards", data, n)
		}
	})
}
