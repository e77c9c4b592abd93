package modelardb

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"modelardb/internal/durable"
	"modelardb/internal/storage"
)

// onDiskSchedule is a deterministic, single-goroutine workload over a
// file store and a WAL small enough to rotate: sequenced and
// unsequenced batches, bulk writes, a checkpointing Flush, and a tail
// left in the WAL. It returns hashDirs of the two directories after
// the tail and again after Close.
func onDiskSchedule(t *testing.T) map[string]string {
	t.Helper()
	dataDir, walDir := t.TempDir(), t.TempDir()
	cfg := walConfig(4, dataDir, walDir, "always")
	cfg.LengthLimit = 10
	cfg.BulkWriteSize = 8
	cfg.WALSegmentBytes = 512
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(from, to int, seq uint64) {
		var pts []DataPoint
		for tick := from; tick < to; tick++ {
			for tid := 1; tid <= 4; tid++ {
				if (tick+tid)%13 == 0 {
					continue // a gap
				}
				pts = append(pts, DataPoint{Tid: Tid(tid), TS: int64(tick) * 100, Value: float32((tick*7+tid)%23) + float32(tid)/4})
			}
		}
		var seqs map[Gid]uint64
		if seq > 0 {
			seqs = map[Gid]uint64{}
			for gid := Gid(1); gid <= 4; gid++ {
				seqs[gid] = seq
			}
		}
		if err := db.AppendBatchSeq(context.Background(), pts, seqs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		batch(i*20, i*20+20, uint64(i%3))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 16; i++ {
		batch(i*20, i*20+20, uint64(i))
	}
	for tick := 320; tick < 330; tick++ {
		if err := db.Append(2, int64(tick)*100, float32(tick%5)); err != nil {
			t.Fatal(err)
		}
	}
	sums := map[string]string{}
	hashDirs(t, sums, "tail", dataDir, walDir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	hashDirs(t, sums, "closed", dataDir, walDir)
	return sums
}

// hashDirs adds the SHA-256 of every file under dataDir and walDir to
// sums, keyed by "stage/data/relative path" and "stage/wal/…".
// timeseries.meta is gob over maps, whose bytes are not stable, and is
// left out.
func hashDirs(t *testing.T, sums map[string]string, stage, dataDir, walDir string) {
	t.Helper()
	for name, dir := range map[string]string{"data": dataDir, "wal": walDir} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || d.Name() == "timeseries.meta" {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			sum := sha256.Sum256(data)
			sums[stage+"/"+name+"/"+filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnDiskBytesGolden pins the bytes of every WAL segment, the WAL
// checkpoint, walmeta and segments.log that onDiskSchedule leaves, so a
// change to the code that writes them cannot change the format by
// accident. A change of format is a new set of hashes and a typed
// error for the old one: segments.log went from one frame per segment
// to one per block, which moved its hashes and the checkpoints, which
// record its length, and a log of the old format is refused
// (TestOnDiskLegacyLogRefused).
func TestOnDiskBytesGolden(t *testing.T) {
	// The current format's hashes; an empty segment is e3b0c442….
	want := map[string]string{
		"closed/data/segments.log":                  "133e48eacd3ab6b88983fe6aefcd46a37d6e1013b946be141209eb46379f8f1b",
		"closed/wal/checkpoint":                     "e9fe87a0fdff148a1fec1251cf12100172136bf4af0b9d6ce517335c63ce9dd0",
		"closed/wal/shard-000/0000000000000001.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-001/0000000000000003.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-002/0000000000000004.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-003/0000000000000003.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-004/0000000000000003.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-005/0000000000000001.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-006/0000000000000001.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/shard-007/0000000000000001.wal": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"closed/wal/walmeta":                        "9c88fd3146e090647df48f928c61978cfdde6f5bd84540d4de38435513d866b9",
		"tail/data/segments.log":                    "a2efc0bd4aa3b2114e914a70c30933e3dbe1bc27c3b05075e904bf8c02a443f0",
		"tail/wal/checkpoint":                       "e3ac66f78436c3b723c13d3613a19ebad296ab31773dca7fc069c5c34ebe5db6",
		"tail/wal/shard-000/0000000000000001.wal":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"tail/wal/shard-001/0000000000000002.wal":   "984d34c99c2fd2ea2916f9d2c5d9fbb731264129daa811e75ba66391df0e99de",
		"tail/wal/shard-001/0000000000000003.wal":   "5e14cd1c42be43ca1290fb5dd2cfba8cd18bf6012be08d6c6711ba6fd5ad9bef",
		"tail/wal/shard-002/0000000000000002.wal":   "b5553014bf0e382b962bea99cfebefff100552e4edec780ecd3b204667ea1152",
		"tail/wal/shard-002/0000000000000003.wal":   "b1001621d9a0c94c9d32f046ce1f9c7e62b7665dabf805c271c20b90b324a7c6",
		"tail/wal/shard-002/0000000000000004.wal":   "23d7141d05a49766cd63bfa6f69c65d17379ee464f4afb77cac50ca89629e36b",
		"tail/wal/shard-003/0000000000000002.wal":   "1ed7557c2c65a7dd04704961fd43bf09e169d417b5c3903f00c8bd44fc729fa0",
		"tail/wal/shard-003/0000000000000003.wal":   "37c248050dfe51f25bd85e2ba3595e87a6ffd4af92313684f96d8879abbb6546",
		"tail/wal/shard-004/0000000000000002.wal":   "4a3e7268e96ddcbf060659ce01c3ff01fe9f5de6c56dfeef10160381d706fe98",
		"tail/wal/shard-004/0000000000000003.wal":   "f857575be59e000fa0b85a905f2cfdd6a33aa20b76a99a54d4f1f750da58aa13",
		"tail/wal/shard-005/0000000000000001.wal":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"tail/wal/shard-006/0000000000000001.wal":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"tail/wal/shard-007/0000000000000001.wal":   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"tail/wal/walmeta":                          "9c88fd3146e090647df48f928c61978cfdde6f5bd84540d4de38435513d866b9",
	}
	got := onDiskSchedule(t)
	if !reflect.DeepEqual(got, want) {
		for k, v := range got {
			if want[k] != v {
				t.Errorf("%s: sha256 %s, want %q", k, v, want[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: missing", k)
			}
		}
	}
}

// TestOnDiskMetaGolden: testdata/ondisk/timeseries.meta was written by
// an older build for the configuration below. The file is gob over
// maps, whose bytes are not stable, so instead of its bytes the test
// pins what it reads back as: exactly what this build writes.
func TestOnDiskMetaGolden(t *testing.T) {
	cfg := walConfig(4, t.TempDir(), "", "")
	cfg.Correlations = []string{"Location 0"}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want, ok, err := storage.LoadMeta(durable.OS{}, cfg.Path)
	if err != nil || !ok {
		t.Fatalf("LoadMeta of this build's file: %v, ok=%v", err, ok)
	}
	got, ok, err := storage.LoadMeta(durable.OS{}, filepath.Join("testdata", "ondisk"))
	if err != nil || !ok {
		t.Fatalf("LoadMeta of the older build's file: %v, ok=%v", err, ok)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("older build's metadata reads back as\n%+v\nwant\n%+v", got, want)
	}
}

// TestOnDiskLegacyLogRefused: testdata/ondisk/segments.log was written
// by the build before blocks, one frame per segment, for the
// configuration of TestOnDiskMetaGolden. Opening its directory must
// fail with storage.ErrLegacyLog and leave the log as it was.
func TestOnDiskLegacyLogRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"timeseries.meta", "segments.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "ondisk", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacy, _ := os.ReadFile(filepath.Join(dir, "segments.log"))
	cfg := walConfig(4, dir, "", "")
	cfg.Correlations = []string{"Location 0"}
	db, err := Open(cfg)
	if err == nil {
		db.Close()
	}
	if !errors.Is(err, storage.ErrLegacyLog) {
		t.Fatalf("Open of a per-segment log = %v, want storage.ErrLegacyLog", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "segments.log")); !bytes.Equal(got, legacy) {
		t.Fatalf("the refused log changed: %d bytes, was %d", len(got), len(legacy))
	}
}
