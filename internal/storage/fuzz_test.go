package storage

import (
	"bytes"
	"context"
	"testing"

	"modelardb/internal/core"
)

// FuzzFileStoreRecover drives the segment log's open-time recovery
// with arbitrary log bytes, held in memory: opening must not panic,
// must truncate to a decodable prefix of the input, and every
// surviving record must scan cleanly. The seed corpus mirrors the
// torn-tail sweep fixtures: a real five-segment log, truncations at
// varied offsets, a mid-record bit flip, and a tail frame whose header
// claims a gigabyte the log does not have.
func FuzzFileStoreRecover(f *testing.F) {
	seed := &memLog{}
	s, err := openLog(seed, 0, testMembers, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900))); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	full := seed.data
	f.Add(full)
	for cut := 1; cut < len(full); cut += len(full)/16 + 1 {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Add(append(append([]byte(nil), full...), hugeFrame...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		log := &memLog{data: bytes.Clone(data)}
		st, err := openLog(log, int64(len(data)), testMembers, 1)
		if err != nil {
			// recover only errors on I/O, never on corrupt records.
			t.Fatalf("opening the fuzz log: %v", err)
		}
		defer st.Close()
		if !bytes.HasPrefix(data, log.data) {
			t.Fatalf("recovery left %d bytes that are not a prefix of the %d-byte input", len(log.data), len(data))
		}
		// Every record recovery kept must decode and scan cleanly.
		var scanned int64
		if err := st.Scan(context.Background(), AllTime(), func(*core.Segment) error {
			scanned++
			return nil
		}); err != nil {
			t.Fatalf("scanning the recovered log: %v", err)
		}
		count, err := st.Count()
		if err != nil {
			t.Fatal(err)
		}
		if scanned != count {
			t.Fatalf("scanned %d segments, Count reports %d", scanned, count)
		}
	})
}
