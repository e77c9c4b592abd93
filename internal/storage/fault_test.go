package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/durable"
)

var errInjected = errors.New("injected fault")

// faultLog is a memory log that fails on purpose. The failWrite-th
// WriteAt (counting from 1; 0 is never) lands only its first keep
// bytes and fails, and the failSync-th Sync fails. Every call reaches
// it under the store's write lock, so the counters need no lock.
type faultLog struct {
	memLog
	writes, failWrite, keep int
	syncs, failSync         int
}

func (f *faultLog) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.writes != f.failWrite {
		return f.memLog.WriteAt(p, off)
	}
	n, _ := f.memLog.WriteAt(p[:min(f.keep, len(p))], off)
	return n, errInjected
}

func (f *faultLog) Sync() error {
	f.syncs++
	if f.syncs == f.failSync {
		return errInjected
	}
	return nil
}

// reopen opens a second store over a copy of the log's bytes, as the
// next process would find them.
func reopen(t *testing.T, log *faultLog) *FileStore {
	t.Helper()
	s, err := openLog(&memLog{data: slices.Clone(log.data)}, int64(len(log.data)), testMembers, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileStoreWriteFaultRetries fails the second bulk write with
// nothing, a torn header or a torn record written. The store keeps the
// buffer, so the next bulk write retries it at the same offset over the
// torn bytes: every segment is then scanned exactly once, and so it is
// after reopening over the same bytes.
func TestFileStoreWriteFaultRetries(t *testing.T) {
	for _, keep := range []int{0, durable.FrameHeader / 2, durable.FrameHeader + 3, 40} {
		t.Run(fmt.Sprint("keep=", keep), func(t *testing.T) {
			log := &faultLog{failWrite: 2, keep: keep}
			s, err := openLog(log, 0, testMembers, 3)
			if err != nil {
				t.Fatal(err)
			}
			var inserted []*core.Segment
			for i := 0; i < 8; i++ {
				seg := makeSegment(core.Gid(i%2+1), int64(i*1000), int64(i*1000+900))
				inserted = append(inserted, seg)
				err := s.Insert(seg)
				if wantErr := i == 5; errors.Is(err, errInjected) != wantErr {
					t.Fatalf("insert %d: err %v, want the injected fault: %v", i, err, wantErr)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			want := keysOf(model(inserted, AllTime()))
			if got := keysOf(scanAll(t, s, AllTime())); !slices.Equal(got, want) {
				t.Fatalf("scan after the retry:\n   got %v\n model %v", got, want)
			}
			again := reopen(t, log)
			if got := keysOf(scanAll(t, again, AllTime())); !slices.Equal(got, want) {
				t.Fatalf("scan after reopening:\n   got %v\n model %v", got, want)
			}
		})
	}
}

// TestFileStoreSyncErrorIsSticky: after a failed fsync the log's
// durable state is unknown, so Insert, Flush and Sync all keep
// returning that error. What the flush wrote before the fsync is still
// found exactly once by the next open.
func TestFileStoreSyncErrorIsSticky(t *testing.T) {
	log := &faultLog{failSync: 1}
	s, err := openLog(log, 0, testMembers, 100)
	if err != nil {
		t.Fatal(err)
	}
	var inserted []*core.Segment
	for i := 0; i < 3; i++ {
		seg := makeSegment(1, int64(i*1000), int64(i*1000+900))
		inserted = append(inserted, seg)
		if err := s.Insert(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync = %v, want the injected fault", err)
	}
	for name, op := range map[string]func() error{
		"Insert": func() error { return s.Insert(makeSegment(1, 9000, 9900)) },
		"Flush":  s.Flush,
		"Sync":   s.Sync,
	} {
		if err := op(); !errors.Is(err, errInjected) {
			t.Fatalf("%s after a failed fsync = %v, want the injected fault", name, err)
		}
	}
	if log.syncs != 1 {
		t.Fatalf("%d fsyncs, want the store to stop after the failed one", log.syncs)
	}
	want := keysOf(model(inserted, AllTime()))
	if got := keysOf(scanAll(t, reopen(t, log), AllTime())); !slices.Equal(got, want) {
		t.Fatalf("scan after reopening:\n   got %v\n model %v", got, want)
	}
}

// TestFlushReleasesBuffer: once a bulk write is in the log, the
// buffer's backing array must not keep its segments reachable.
func TestFlushReleasesBuffer(t *testing.T) {
	s := NewMemStore(testMembers)
	for i := 0; i < 10; i++ {
		if err := s.Insert(makeSegment(1, int64(i*1000), int64(i*1000+900))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, seg := range s.buffer[:cap(s.buffer)] {
		if seg != nil {
			t.Fatalf("buffer slot %d still holds a flushed segment", i)
		}
	}
}
