package modelardb

// Crash-recovery tests for the point-level WAL: a database whose
// Append returned nil, then crashed before Flush, must answer queries
// identically to a database that never crashed. "Crash" is simulated
// by abandoning the DB without Flush or Close — everything buffered in
// the GroupIngestors and the file store's bulk-write buffer is lost,
// exactly what a process kill loses.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// walConfig is groupsConfig with the WAL enabled.
func walConfig(n int, dataDir, walDir, fsync string) Config {
	cfg := groupsConfig(n)
	cfg.Path = dataDir
	cfg.WALDir = walDir
	cfg.WALFsync = fsync
	return cfg
}

var equivalenceQueries = []string{
	"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS",
	"SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
	"SELECT COUNT(*), SUM(Value) FROM DataPoint",
}

// assertSameResults flushes both databases and compares the full
// query-path surface: the materialized executor at parallelism 1 and
// >1 (got side), and the streaming cursor.
func assertSameResults(t *testing.T, got, want *DB) {
	t.Helper()
	if err := got.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := want.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range equivalenceQueries {
		w, err := want.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got.engine.SetParallelism(par)
			g, err := got.Query(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Rows, w.Rows) {
				t.Fatalf("%q (parallelism %d): got %d rows %v, want %d rows %v",
					sql, par, len(g.Rows), g.Rows, len(w.Rows), w.Rows)
			}
		}
		// The cursor path reads the same replayed data.
		rows, err := got.QueryRows(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(w.Rows) {
			t.Fatalf("%q cursor: %d rows, want %d", sql, n, len(w.Rows))
		}
	}
}

// ingest drives the same deterministic workload into a DB.
func ingestWorkload(t *testing.T, db *DB, nseries, ticks int) {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		for tid := 1; tid <= nseries; tid++ {
			if err := db.Append(Tid(tid), int64(tick)*100, float32(tick%37)+float32(tid)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestWALKillAndReopenFileStore(t *testing.T) {
	const nseries, ticks = 4, 400
	dataDir, walDir := t.TempDir(), t.TempDir()
	crashed, err := Open(walConfig(nseries, dataDir, walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, crashed, nseries, ticks)
	// Crash: no Flush, no Close — the buffered models and the store's
	// bulk-write buffer are gone.
	reopened, err := Open(walConfig(nseries, dataDir, walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	control, err := Open(groupsConfig(nseries))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	ingestWorkload(t, control, nseries, ticks)
	assertSameResults(t, reopened, control)
	st, err := reopened.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != int64(nseries*ticks) {
		t.Fatalf("replayed DataPoints = %d, want %d", st.DataPoints, nseries*ticks)
	}
}

func TestWALMemStoreJournal(t *testing.T) {
	// With the in-memory store the WAL is a full journal: a crash loses
	// the whole store, and reopen rebuilds it from the log alone.
	const nseries, ticks = 3, 300
	walDir := t.TempDir()
	crashed, err := Open(walConfig(nseries, "", walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, crashed, nseries, ticks)
	// A Flush in the middle must not truncate the journal.
	if err := crashed.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(walConfig(nseries, "", walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	control, err := Open(groupsConfig(nseries))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	ingestWorkload(t, control, nseries, ticks)
	assertSameResults(t, reopened, control)
}

func TestWALCleanReopenNoDuplicates(t *testing.T) {
	// A clean Close checkpoints at the store log's end; reopening must
	// replay nothing and double-ingest nothing.
	const nseries, ticks = 4, 200
	dataDir, walDir := t.TempDir(), t.TempDir()
	db, err := Open(walConfig(nseries, dataDir, walDir, "interval"))
	if err != nil {
		t.Fatal(err)
	}
	ingestWorkload(t, db, nseries, ticks)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(walConfig(nseries, dataDir, walDir, "interval"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	control, err := Open(groupsConfig(nseries))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	ingestWorkload(t, control, nseries, ticks)
	assertSameResults(t, reopened, control)
	if st, _ := reopened.Stats(); st.DataPoints != 0 {
		t.Fatalf("clean reopen replayed %d points, want 0", st.DataPoints)
	}
}

// TestWALTornTailSweep cuts the WAL at every byte boundary of the last
// record (the same failure-injection sweep storage_test.go runs on the
// segment log) and verifies the reopened database equals a control
// that ingested exactly the intact prefix of acknowledged points.
func TestWALTornTailSweep(t *testing.T) {
	walDir := t.TempDir()
	cfg := walConfig(1, "", walDir, "always")
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Single series, one WAL record per point: record k holds point k.
	const points = 6
	var sizes []int64
	var segPath string
	for i := 0; i < points; i++ {
		if err := db.Append(1, int64(i)*100, float32(i)); err != nil {
			t.Fatal(err)
		}
		if segPath == "" {
			matches, err := filepath.Glob(filepath.Join(walDir, "shard-*", "*.wal"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no WAL segment found: %v %v", matches, err)
			}
			for _, m := range matches {
				if info, _ := os.Stat(m); info != nil && info.Size() > 0 {
					segPath = m
				}
			}
		}
		info, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	// Crash without Flush or Close, keeping the log bytes.
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	control, err := Open(groupsConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for i := 0; i < points-1; i++ {
		if err := control.Append(1, int64(i)*100, float32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for cut := sizes[points-1] - 1; cut >= sizes[points-2]; cut-- {
		if err := os.WriteFile(segPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen at cut %d: %v", cut, err)
		}
		assertSameResults(t, reopened, control)
		reopened.Close()
		// Restore the full log for the next iteration's cut.
		if err := os.WriteFile(segPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCrashEqualsNoCrashProperty is the randomized form: random
// batches, random flushes, a crash at a random point — replay must
// reproduce the never-crashed database on both stores. Three kinds of
// crash run on each store:
//   - a process crash (the database is abandoned over real directories);
//   - an OS crash (over faultFS, which then keeps only what was synced:
//     file bytes up to their last fsync, directory entries up to their
//     directory's last fsync); under "always" every acknowledged point
//     must still be there;
//   - one injected fault and then an OS crash: the Nth write fails or is
//     cut short, or the Nth fsync fails. The failing call returns the
//     fault, every later call either succeeds or returns it too (the
//     sticky error), and after the crash every acknowledged point is
//     there once, beside nothing but points of the calls that failed.
func TestWALCrashEqualsNoCrashProperty(t *testing.T) {
	const nseries = 6
	for _, store := range []string{"mem", "file"} {
		for _, crash := range []string{"", "oscrash/", "fault/"} {
			// faultFS runs in memory, so its inputs are cheap to multiply.
			seeds := int64(4)
			if crash != "" {
				seeds = 12
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%sseed%d", store, crash, seed), func(t *testing.T) {
					crashProperty(t, nseries, store, crash, seed)
				})
			}
		}
	}
}

func crashProperty(t *testing.T, nseries int, store, crash string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var fsys *faultFS
	dataDir, walDir := "", t.TempDir()
	if crash != "" {
		fsys, walDir = newFaultFS(), "wal"
	}
	if store == "file" {
		dataDir = "data"
		if fsys == nil {
			dataDir = t.TempDir()
		}
	}
	cfg := walConfig(nseries, dataDir, walDir, "always")
	// Small knobs so the crash lands between models, mid-model
	// and mid-bulk-buffer across seeds.
	cfg.LengthLimit = 10
	cfg.BulkWriteSize = 16
	// acked holds every point a call acknowledged, maybe the points of
	// the calls that failed.
	var acked, maybe []DataPoint
	check := func(err error) bool {
		if err != nil && (crash != "fault/" || !errors.Is(err, errInjected)) {
			t.Fatal(err)
		}
		return err == nil
	}
	open := func(fsys *faultFS) *DB {
		if fsys == nil {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		for {
			// An open the fault failed is retried: it fires only once.
			if db, err := openFS(cfg, fsys); check(err) {
				return db
			}
		}
	}
	crashed := open(fsys)
	control, err := Open(groupsConfig(nseries))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	if crash == "fault/" {
		n := 1 + rng.Intn(600)
		switch rng.Intn(3) {
		case 0:
			fsys.fail(n, 0, 0)
		case 1:
			fsys.fail(n, 1+rng.Intn(40), 0)
		default:
			fsys.fail(0, 0, n)
		}
	}
	apply := func(db *DB, batch []DataPoint, useBatch bool) int {
		if useBatch {
			if !check(db.AppendBatch(context.Background(), batch)) {
				return 0
			}
			return len(batch)
		}
		for i, p := range batch {
			if !check(db.Append(p.Tid, p.TS, p.Value)) {
				return i
			}
		}
		return len(batch)
	}
	tick := 0
	steps := 30 + rng.Intn(40)
	for step := 0; step < steps; step++ {
		var batch []DataPoint
		for n := 1 + rng.Intn(8); n > 0; n-- {
			for tid := 1; tid <= nseries; tid++ {
				if rng.Intn(10) > 0 { // occasional per-series gap
					batch = append(batch, DataPoint{
						Tid: Tid(tid), TS: int64(tick) * 100,
						Value: float32(rng.Intn(50)) + float32(tid),
					})
				}
			}
			tick++
		}
		useBatch := rng.Intn(2) == 0
		n := apply(crashed, batch, useBatch)
		acked, maybe = append(acked, batch[:n]...), append(maybe, batch[n:]...)
		apply(control, batch[:n], useBatch)
		if rng.Intn(7) == 0 {
			check(crashed.Flush())
		}
		if fsys != nil && rng.Intn(15) == 0 {
			// A clean restart: its directory fsyncs make the checkpoint
			// durable, so a later crash can bring back this one instead
			// of a newer one whose rename was not made durable.
			check(crashed.Close())
			crashed = open(fsys)
		}
	}
	// Crash (abandon) and reopen.
	if fsys != nil {
		fsys = fsys.crash()
	}
	reopened := open(fsys)
	defer reopened.Close()
	if len(maybe) == 0 {
		assertSameResults(t, reopened, control)
		return
	}
	assertAckedPoints(t, reopened, acked, maybe)
}

// assertAckedPoints checks the points db holds against those a failing
// schedule acknowledged: each acknowledged point is there exactly once
// with its value, and any other point is one of maybe's.
func assertAckedPoints(t *testing.T, db *DB, acked, maybe []DataPoint) {
	t.Helper()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range res.Rows {
		key := fmt.Sprint(r[0], "@", r[1])
		if _, dup := got[key]; dup {
			t.Fatalf("point %s recovered twice", key)
		}
		got[key] = fmt.Sprint(r[2])
	}
	for _, p := range acked {
		key := fmt.Sprint(p.Tid, "@", p.TS)
		if v, ok := got[key]; !ok || v != fmt.Sprint(p.Value) {
			t.Fatalf("acknowledged point %s = %v lost or changed (recovered %q, present %v)", key, p.Value, v, ok)
		}
		delete(got, key)
	}
	for _, p := range maybe {
		delete(got, fmt.Sprint(p.Tid, "@", p.TS))
	}
	if len(got) > 0 {
		t.Fatalf("%d recovered points were never appended: %v", len(got), got)
	}
}

// TestWALReopenAfterCrashInOpen fails the first Open of a database at
// each of its writes and fsyncs in turn and then crashes the OS. The
// next Open over what survived must succeed and take writes: walmeta,
// the WAL checkpoint and timeseries.meta each survive whole or not at
// all, and no file the crash dropped is needed.
func TestWALReopenAfterCrashInOpen(t *testing.T) {
	cfg := walConfig(2, "data", "wal", "always")
	for _, kind := range []string{"write", "sync"} {
		for n := 1; ; n++ {
			fsys := newFaultFS()
			if kind == "write" {
				fsys.fail(n, 0, 0)
			} else {
				fsys.fail(0, 0, n)
			}
			db, err := openFS(cfg, fsys)
			if err != nil && !errors.Is(err, errInjected) {
				t.Fatalf("%s %d: %v", kind, n, err)
			}
			reopened, rerr := openFS(cfg, fsys.crash())
			if rerr != nil {
				t.Fatalf("reopen after failing %s %d of the first Open: %v", kind, n, rerr)
			}
			if err := reopened.Append(1, 0, 1); err != nil {
				t.Fatalf("%s %d: append after reopen: %v", kind, n, err)
			}
			if err := reopened.Close(); err != nil {
				t.Fatalf("%s %d: %v", kind, n, err)
			}
			if err == nil {
				db.Close()
				break // n is past the first Open's last call
			}
		}
	}
}

func TestOpenValidatesWALConfig(t *testing.T) {
	cfg := groupsConfig(1)
	cfg.WALSegmentBytes = -1
	if _, err := Open(cfg); err == nil {
		t.Fatal("negative WALSegmentBytes must fail Open")
	}
	cfg = groupsConfig(1)
	cfg.WALFsync = "sometimes"
	if _, err := Open(cfg); err == nil {
		t.Fatal("unknown WALFsync policy must fail Open")
	}
	// The zero values stay valid with and without a WAL dir.
	cfg = groupsConfig(1)
	cfg.WALDir = t.TempDir()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestWALAppendAfterCloseAndErrClosed(t *testing.T) {
	cfg := walConfig(1, "", t.TempDir(), "never")
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(1, 100, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestWALCloseAfterFlushFaultReopens: a Close whose final flush fails
// still closes the store and the WAL, stopping the WAL's sync
// goroutine, and reports the flush's error; the acknowledged points
// the WAL holds survive an OS crash after it.
func TestWALCloseAfterFlushFaultReopens(t *testing.T) {
	const nseries, ticks = 3, 120
	cfg := walConfig(nseries, "data", "wal", "interval")
	before := runtime.NumGoroutine()
	fsys := newFaultFS()
	db, err := openFS(cfg, fsys)
	if err != nil {
		t.Fatal(err)
	}
	var acked []DataPoint
	for tick := 0; tick < ticks; tick++ {
		for tid := 1; tid <= nseries; tid++ {
			p := DataPoint{Tid: Tid(tid), TS: int64(tick) * 100, Value: float32(tick%37) + float32(tid)}
			if err := db.Append(p.Tid, p.TS, p.Value); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, p)
		}
	}
	fsys.fail(1, 0, 0) // the first write of Close's flush
	if err := db.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want the injected fault", err)
	}
	// Close waits for the WAL's goroutine to be told to stop; give it
	// the moment it needs to return.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	reopened, err := openFS(cfg, fsys.crash())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertAckedPoints(t, reopened, acked, nil)
}

// TestStoreReadCountersInSnapshot: a database exports the store's
// log-read counters through the one registry — so /metrics, STATS and
// a cluster Snapshot carry them — whether its log is on disk or in
// memory.
func TestStoreReadCountersInSnapshot(t *testing.T) {
	for _, path := range []string{t.TempDir(), ""} {
		cfg := groupsConfig(2)
		cfg.Path = path
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ingestWorkload(t, db, 2, 100)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(context.Background(), "SELECT SUM(Value) FROM DataPoint"); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot()
		if snap[MetricStoreReads] < 1 || snap[MetricStoreReadBytes] < snap[MetricStorageBytes] {
			t.Fatalf("path %q: store counters = %v reads, %v bytes for %v stored bytes; a full scan reads them all",
				path, snap[MetricStoreReads], snap[MetricStoreReadBytes], snap[MetricStorageBytes])
		}
	}
}

// TestWALOrphanGroupTruncates: records of a group the configuration
// no longer knows (here: the WAL outlived its data directory and the
// new config has fewer series) can never replay — a checkpoint must
// still release their segments instead of pinning the WAL forever.
func TestWALOrphanGroupTruncates(t *testing.T) {
	walDir := t.TempDir()
	db1, err := Open(walConfig(2, t.TempDir(), walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for tid := Tid(1); tid <= 2; tid++ {
			if err := db1.Append(tid, int64(i)*100, float32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash; the data directory is lost but the WAL survives, and the
	// database is reopened with a single-series config (gid 2 orphaned).
	db2, err := Open(walConfig(1, t.TempDir(), walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := db2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != 50 {
		t.Fatalf("replayed points = %d, want gid 1's 50", st.DataPoints)
	}
	if st.WALBytes != 0 {
		t.Fatalf("WALBytes after checkpoint = %d; orphaned gid 2 pins the log", st.WALBytes)
	}
}

// TestWALGroupCommitConcurrentCrash: concurrent SyncAlways appenders
// on different series, then a crash. Group commit coalesces their
// fsyncs, but every append that returned nil was covered by some fsync
// before it was acknowledged — so recovery must replay every single
// point, and the WAL fsync counter must stay visible through Stats.
func TestWALGroupCommitConcurrentCrash(t *testing.T) {
	const nseries, ticks = 4, 300
	dataDir, walDir := t.TempDir(), t.TempDir()
	crashed, err := Open(walConfig(nseries, dataDir, walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for tid := 1; tid <= nseries; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for tick := 0; tick < ticks; tick++ {
				if err := crashed.Append(Tid(tid), int64(tick)*100, float32(tick%37)+float32(tid)); err != nil {
					t.Errorf("tid %d: %v", tid, err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	st, err := crashed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WALFsyncs <= 0 {
		t.Fatalf("Stats.WALFsyncs = %d under SyncAlways, want > 0", st.WALFsyncs)
	}
	if st.WALBytesSinceCheckpoint <= 0 {
		t.Fatalf("Stats.WALBytesSinceCheckpoint = %d after appends, want > 0", st.WALBytesSinceCheckpoint)
	}
	// Crash: no Flush, no Close.
	reopened, err := Open(walConfig(nseries, dataDir, walDir, "always"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// Materialize the replayed model buffers so the count below sees
	// every point, including the tail still being fitted.
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := reopened.Query(context.Background(), "SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != nseries {
		t.Fatalf("recovered %d series, want %d", len(res.Rows), nseries)
	}
	for i, row := range res.Rows {
		if got := int(row[1].(float64)); got != ticks {
			t.Errorf("tid %d recovered %d points, want %d", i+1, got, ticks)
		}
	}
}
