package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/sqlparse"
)

// fleetConfig builds a config with 8 series in 4 groups of 2.
func fleetConfig() modelardb.Config {
	cfg := modelardb.Config{
		ErrorBound: modelardb.RelBound(0),
		Dimensions: []modelardb.Dimension{
			{Name: "Location", Levels: []string{"Park", "Turbine"}},
		},
		Correlations: []string{"Location 1"},
	}
	for park := 0; park < 4; park++ {
		for t := 0; t < 2; t++ {
			cfg.Series = append(cfg.Series, modelardb.SeriesConfig{
				SI: 1000,
				Members: map[string][]string{
					"Location": {fmt.Sprintf("P%d", park), fmt.Sprintf("T%d-%d", park, t)},
				},
			})
		}
	}
	return cfg
}

// clientAppend adapts the transport Client's context-first Append to
// fillCluster's plain signature.
func clientAppend(c *Client) func(modelardb.Tid, int64, float32) error {
	return func(tid modelardb.Tid, ts int64, value float32) error {
		return c.Append(context.Background(), tid, ts, value)
	}
}

// fillCluster ingests a deterministic workload.
func fillCluster(t *testing.T, appendFn func(modelardb.Tid, int64, float32) error, nseries, ticks int) {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		for tid := 1; tid <= nseries; tid++ {
			v := float32(tid*100 + tick%7)
			if err := appendFn(modelardb.Tid(tid), int64(tick)*1000, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func expectedSum(tid, ticks int) float64 {
	sum := 0.0
	for tick := 0; tick < ticks; tick++ {
		sum += float64(tid*100 + tick%7)
	}
	return sum
}

func TestAssignGroupsBalanced(t *testing.T) {
	db, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assign := AssignGroups(db, 2)
	if len(assign) != 4 {
		t.Fatalf("assign = %v, want 4 groups", assign)
	}
	load := map[int]int{}
	for gid, w := range assign {
		load[w] += len(db.GroupMembers(gid))
	}
	if load[0] != 4 || load[1] != 4 {
		t.Fatalf("load = %v, want 4 series per worker", load)
	}
}

func TestLocalClusterMatchesSingleNode(t *testing.T) {
	const ticks = 300
	single, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	fillCluster(t, single.Append, 8, ticks)
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}

	c, err := NewLocal(context.Background(), fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, ticks)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT Park, COUNT_S(*), AVG_S(*) FROM Segment GROUP BY Park ORDER BY Park",
		"SELECT MAX_S(*) FROM Segment",
		"SELECT Tid, CUBE_SUM_MINUTE(*) FROM Segment WHERE Tid IN (1, 5) GROUP BY Tid",
	}
	for _, sql := range queries {
		want, err := single.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := c.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows vs %d", sql, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				gv, wv := got.Rows[i][j], want.Rows[i][j]
				if gf, ok := gv.(float64); ok {
					if math.Abs(gf-wv.(float64)) > 1e-6*math.Max(1, math.Abs(wv.(float64))) {
						t.Fatalf("%s: cell (%d,%d) = %v, want %v", sql, i, j, gv, wv)
					}
				} else if gv != wv {
					t.Fatalf("%s: cell (%d,%d) = %v, want %v", sql, i, j, gv, wv)
				}
			}
		}
	}
}

func TestLocalClusterRouting(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Series of the same group land on the same worker (co-location).
	w1, err := c.WorkerOf(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.WorkerOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatalf("group-mates on workers %d and %d, want co-located", w1, w2)
	}
	if _, err := c.WorkerOf(99); err == nil {
		t.Fatal("unknown tid must fail")
	}
}

func TestLocalClusterStats(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 100)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataPoints != 800 || stats.Segments == 0 || stats.Series != 8 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestQueryWithStatsReportsWorkers(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 50)
	c.Flush(context.Background())
	_, times, err := c.QueryWithStats(context.Background(), "SELECT SUM_S(*) FROM Segment")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("times = %v, want one per worker", times)
	}
}

func TestRPCClusterEndToEnd(t *testing.T) {
	const nWorkers = 2
	const ticks = 200
	cfg := fleetConfig()
	var addrs []string
	for i := 0; i < nWorkers; i++ {
		db, err := modelardb.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go NewServer(db).Serve(context.Background(), ln)
		addrs = append(addrs, ln.Addr().String())
	}
	client, err := Dial(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 64
	fillCluster(t, clientAppend(client), 8, ticks)
	if err := client.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(context.Background(), "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	for i, row := range res.Rows {
		want := expectedSum(i+1, ticks)
		if got := row[1].(float64); math.Abs(got-want) > 1e-6 {
			t.Fatalf("tid %d sum = %g, want %g", i+1, got, want)
		}
	}
}

func TestRPCQueryErrorPropagates(t *testing.T) {
	cfg := fleetConfig()
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(db).Serve(context.Background(), ln)
	client, err := Dial(cfg, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(context.Background(), "SELECT Nope FROM Segment"); err == nil {
		t.Fatal("bad query must propagate an error")
	}
}

// TestLocalClusterFailFast: the first worker error cancels the
// scatter — the sibling workers' scans abort instead of running to
// completion — and the returned error is the worker's own error, not
// the fail-fast abort's context.Canceled.
func TestLocalClusterFailFast(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 200)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("synthetic worker failure")
	for i := range c.workers {
		if i == 1 {
			// Worker 1 fails its first segment.
			localDB(c, i).Engine().SetScanHook(func(ctx context.Context) error { return sentinel })
			continue
		}
		// The other workers block per segment until cancelled (with a
		// fallback far beyond the elapsed-time assertion below).
		localDB(c, i).Engine().SetScanHook(func(ctx context.Context) error {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
			}
			return nil
		})
	}
	start := time.Now()
	_, _, err = c.QueryWithStats(context.Background(), "SELECT SUM_S(*) FROM Segment")
	if !errors.Is(err, sentinel) {
		t.Fatalf("scatter error = %v, want the failing worker's own error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("scatter took %s; the sibling scans were not cancelled", elapsed)
	}
}

// TestLocalMasterValidatesBeforeScatter: a master over in-process
// workers parses and validates a query on its metadata replica, like
// a master over TCP workers, so an invalid query fails without any
// worker being asked to run it.
func TestLocalMasterValidatesBeforeScatter(t *testing.T) {
	c, err := NewLocal(context.Background(), fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fakes := fakeWorkers(c, nil, nil)
	for _, sql := range []string{
		"SELECT FROM",               // parse error
		"SELECT Nope FROM Segment",  // unknown column
		"SELECT Value FROM Segment", // DataPoint-view column on Segment
	} {
		if _, err := c.Query(context.Background(), sql); err == nil {
			t.Errorf("Query(%q) must fail", sql)
		}
	}
	for i, f := range fakes {
		if n := f.scatters.Load(); n != 0 {
			t.Fatalf("invalid queries reached worker %d %d times", i, n)
		}
	}
	if _, err := c.Query(context.Background(), "SELECT COUNT_S(*) FROM Segment"); err != nil {
		t.Fatal(err)
	}
	for i, f := range fakes {
		if n := f.scatters.Load(); n != 1 {
			t.Fatalf("a valid query reached worker %d %d times, want 1", i, n)
		}
	}
}

// TestOrderByResolvedBeforeScan: an ORDER BY column that is not in the
// result is a compile error, so a master over in-process workers
// rejects it in Validate and no worker scans a segment for it — as a
// row query and as an aggregate. The same queries with a real column
// do scan, which shows the hook counts.
func TestOrderByResolvedBeforeScan(t *testing.T) {
	ctx := context.Background()
	c, err := NewLocal(ctx, fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 60)
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var scanned atomic.Int64
	for i := range c.workers {
		localDB(c, i).Engine().SetScanHook(func(context.Context) error {
			scanned.Add(1)
			return nil
		})
	}
	for _, sql := range []string{
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, Nope",
		"SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid ORDER BY Nope DESC",
		"SELECT Tid, TS FROM DataPoint ORDER BY Value", // not selected
	} {
		_, err := c.Query(ctx, sql)
		if err == nil || !strings.Contains(err.Error(), "ORDER BY") {
			t.Errorf("Query(%q) err = %v, want an ORDER BY error", sql, err)
		}
	}
	if n := scanned.Load(); n != 0 {
		t.Fatalf("invalid ORDER BY queries scanned %d segments", n)
	}
	for _, sql := range []string{
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY tid, TS",
		"SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid ORDER BY Tid DESC",
	} {
		if _, err := c.Query(ctx, sql); err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
	}
	if scanned.Load() == 0 {
		t.Fatal("valid queries scanned nothing: the hook is not counting")
	}
}

// TestWhereErrorsDoNotDependOnData: a WHERE literal its column cannot
// compare with is a compile error, so the query fails with the same
// error on an empty and on a loaded database, through Query and
// QueryRows, and on a master over in-process workers, whose Validate
// rejects it before any worker is asked.
func TestWhereErrorsDoNotDependOnData(t *testing.T) {
	ctx := context.Background()
	empty, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	loaded, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	fillCluster(t, loaded.Append, 8, 60)
	if err := loaded.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := NewLocal(ctx, fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fakes := fakeWorkers(c, nil, nil)
	query := func(db *modelardb.DB, sql string) error {
		_, err := db.Query(ctx, sql)
		return err
	}
	queryRows := func(db *modelardb.DB, sql string) error {
		rows, err := db.QueryRows(ctx, sql)
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.Err()
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM DataPoint WHERE Park > 5",
		"SELECT COUNT(*) FROM DataPoint WHERE Value = 'x'",
		"SELECT Tid, Value FROM DataPoint WHERE Value BETWEEN 'a' AND 'b'",
		"SELECT COUNT(*) FROM DataPoint WHERE Tid = 'abc'",
		"SELECT COUNT_S(*) FROM Segment WHERE Gaps = 3",
		"SELECT Tid, EndTime FROM Segment WHERE EndTime > 'noon'",
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := c.meta.Engine().Validate(q)
		if want == nil {
			t.Errorf("Validate(%q) passed", sql)
			continue
		}
		_, master := c.Query(ctx, sql)
		for cell, got := range map[string]error{
			"empty Query":      query(empty, sql),
			"empty QueryRows":  queryRows(empty, sql),
			"loaded Query":     query(loaded, sql),
			"loaded QueryRows": queryRows(loaded, sql),
			"master Query":     master,
		} {
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%s: %s: err = %v, want %v", cell, sql, got, want)
			}
		}
	}
	for i, f := range fakes {
		if n := f.scatters.Load(); n != 0 {
			t.Fatalf("invalid queries reached worker %d %d times", i, n)
		}
	}
}

func TestNewLocalValidations(t *testing.T) {
	if _, err := NewLocal(context.Background(), fleetConfig(), 0); err == nil {
		t.Fatal("zero workers must fail")
	}
	cfg := fleetConfig()
	cfg.Path = "/tmp/x"
	if _, err := NewLocal(context.Background(), cfg, 1); err == nil {
		t.Fatal("file-backed local cluster must fail")
	}
}

// TestClientReconnectsAfterConnectionLoss: a dead worker connection is
// redialed once and the call retried, so the client survives a broken
// TCP path without the caller seeing an error.
func TestClientReconnectsAfterConnectionLoss(t *testing.T) {
	cfg := fleetConfig()
	db, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(db).Serve(context.Background(), ln)
	client, err := Dial(cfg, []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Sever the TCP path under the client; the server keeps accepting.
	old := client.conn(0)
	old.conn.Close()
	if _, err := client.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after connection loss = %v, want reconnect-and-retry to succeed", err)
	}
	if client.conn(0) == old {
		t.Fatal("the dead connection was not replaced")
	}
	// The retry is bounded: with the listener gone too, the call fails.
	ln.Close()
	client.conn(0).conn.Close()
	if _, err := client.Stats(context.Background()); err == nil {
		t.Fatal("Stats with worker and listener gone must fail")
	}
}

// TestWorkerRestartWALDurability is the WAL's distributed acceptance
// test: a worker whose DB runs with wal_fsync=always crashes after
// acknowledging appends (nothing flushed), restarts from its data and
// WAL directories, and the master — through the bounded
// reconnect-and-retry — reads every acknowledged point back.
func TestWorkerRestartWALDurability(t *testing.T) {
	const ticks = 50
	cfg := fleetConfig()
	cfg.Path = t.TempDir()
	cfg.WALDir = t.TempDir()
	cfg.WALFsync = "always"
	db1, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go NewServer(db1).Serve(context.Background(), ln)
	client, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.batchSize = 16
	fillCluster(t, clientAppend(client), 8, ticks)
	// Drain the client-side buffers so every point is acknowledged by
	// the worker (and therefore on its WAL); the worker never flushes.
	// An empty AppendBatch seals every open buffer and sends it.
	if err := client.AppendBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	// Crash the worker: listener gone, connection severed, DB abandoned
	// with everything still buffered in its ingestors and bulk buffer.
	ln.Close()
	client.conn(0).conn.Close()
	// Restart: reopen from the same directories (WAL replay) and serve
	// on the same address.
	db2, err := modelardb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln2.Close() })
	go NewServer(db2).Serve(context.Background(), ln2)
	// Flush reaches the restarted worker via reconnect-and-retry and
	// persists the replayed points; the query then sees all of them.
	if err := client.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after worker restart = %v", err)
	}
	res, err := client.Query(context.Background(), "SELECT COUNT(*) FROM DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; fmt.Sprint(got) != fmt.Sprint(8*ticks) {
		t.Fatalf("points after worker restart = %v, want %d", got, 8*ticks)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != 8*ticks {
		t.Fatalf("stats after restart = %+v, want %d replayed points", st, 8*ticks)
	}
}

// TestNewLocalClearsWALDir: n in-process workers must not journal
// into one shared WAL directory (they would corrupt each other's
// shard files and n-plicate every point on a later replay).
func TestNewLocalClearsWALDir(t *testing.T) {
	cfg := fleetConfig()
	cfg.WALDir = t.TempDir()
	c, err := NewLocal(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, clientAppend(c), 8, 20)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.WALBytes != 0 {
		t.Fatalf("local cluster workers wrote %d WAL bytes; WALDir must be cleared", st.WALBytes)
	}
	if st.DataPoints != 8*20 {
		t.Fatalf("points = %d, want %d", st.DataPoints, 8*20)
	}
}
