package storage

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"modelardb/internal/core"
)

// FuzzFileStoreRecover drives the segment log's open-time recovery
// with arbitrary log bytes: opening must not panic, must truncate to a
// decodable prefix no longer than the input, and every surviving
// record must scan cleanly. The seed corpus mirrors the torn-tail
// sweep fixtures: a real five-segment log, truncations at varied
// offsets, a mid-record bit flip, and a tail frame whose header claims
// a gigabyte the file does not have.
func FuzzFileStoreRecover(f *testing.F) {
	seedDir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(seedDir)
	s, err := OpenFileStore(seedDir, testMembers, 1)
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
	full, err := os.ReadFile(filepath.Join(seedDir, logName))
	if err != nil {
		f.Fatal(err)
	}
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
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFileStore(dir, testMembers, 1)
		if err != nil {
			// recover only errors on I/O, never on corrupt records.
			t.Fatalf("OpenFileStore on fuzz log: %v", err)
		}
		defer st.Close()
		info, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > int64(len(data)) {
			t.Fatalf("recovery grew the log: %d > %d", info.Size(), len(data))
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
