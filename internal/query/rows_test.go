package query

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/models"
	"modelardb/internal/sqlparse"
	"modelardb/internal/storage"
)

// TestMain is the package's goroutine-leak gate: every test in this
// package — cancellation, early close, the abort paths of the worker
// pool — must leave no executor goroutine behind. The check waits out
// short-lived shutdown races before failing, and dumps all stacks when
// a leak is real. Fuzzing runs skip the gate: the fuzz engine installs
// an os/signal handler goroutine of its own that never exits.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	if code == 0 {
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after tests, %d before\n%s\n",
				n, base, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// waitGoroutines waits for the goroutine count to fall back to the
// captured baseline, failing with a stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("executor goroutines did not drain: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// streamDB builds a deterministic lossless database large enough that
// its DataPoint view (tens of thousands of rows) cannot fit in the
// cursor's internal buffering — the property the cancellation tests
// rely on. kind selects the store backend.
func streamDB(t *testing.T, kind string) *Engine {
	t.Helper()
	schema, err := dims.NewSchema(dims.Dimension{Name: "Location", Levels: []string{"Park"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewMetadataCache()
	const nGroups, perGroup, ticks = 4, 2, 3000
	tid := core.Tid(1)
	var groups [][]core.Tid
	for g := 0; g < nGroups; g++ {
		var tids []core.Tid
		for i := 0; i < perGroup; i++ {
			err := meta.Add(&core.TimeSeries{
				Tid: tid, SI: 1000,
				Members: map[string][]string{"Location": {fmt.Sprintf("P%d", g%2)}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := meta.SetGroup(tid, core.Gid(g+1)); err != nil {
				t.Fatal(err)
			}
			tids = append(tids, tid)
			tid++
		}
		groups = append(groups, tids)
	}
	members := func(gid core.Gid) []core.Tid { return meta.TidsOf(gid) }
	var store storage.SegmentStore
	if kind == "mem" {
		store = storage.NewMemStore(members)
	} else {
		fs, err := storage.OpenFileStore(t.TempDir(), members, 64)
		if err != nil {
			t.Fatal(err)
		}
		store = fs
	}
	t.Cleanup(func() { store.Close() })
	for g, tids := range groups {
		cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
			Registry:  models.NewBuiltinRegistry(),
			Bound:     models.RelBound(0),
			OnSegment: func(s *core.Segment) error { return store.Insert(s) },
		}}
		gi := core.NewGroupIngestor(cfg, core.Gid(g+1), 1000, tids)
		for tick := 0; tick < ticks; tick++ {
			for _, tt := range tids {
				if err := gi.Append(tt, int64(tick)*1000, float32((tick*7+int(tt))%977)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(store, meta, models.NewBuiltinRegistry(), schema)
}

func mustParse(t testing.TB, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

// collectRows drains a cursor into a materialized row set.
func collectRows(t *testing.T, rows *Rows) [][]any {
	t.Helper()
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		row := rows.Row()
		out = append(out, append([]any(nil), row...))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out
}

// randomCursorSQL mixes queries that stream (no aggregate, no ORDER
// BY, with and without LIMIT) with queries the cursor finalizes before
// it walks them (aggregates, ORDER BY), so both cursor paths are
// compared against Execute.
func randomCursorSQL(rng *rand.Rand, nSeries int) string {
	where := ""
	switch rng.Intn(5) {
	case 0:
		where = fmt.Sprintf(" WHERE Tid = %d", rng.Intn(nSeries)+1)
	case 1:
		where = fmt.Sprintf(" WHERE Park = 'P%d'", rng.Intn(3))
	case 2:
		lo := int64(rng.Intn(300)) * 1000
		where = fmt.Sprintf(" WHERE TS BETWEEN %d AND %d", lo, lo+int64(rng.Intn(300))*1000)
	}
	limit := ""
	if rng.Intn(3) == 0 {
		limit = fmt.Sprintf(" LIMIT %d", rng.Intn(500))
	}
	switch rng.Intn(5) {
	case 0:
		return "SELECT Tid, TS, Value FROM DataPoint" + where + limit
	case 1:
		return "SELECT Tid, StartTime, EndTime FROM Segment" + where + limit
	case 2:
		return "SELECT Tid, TS, Value FROM DataPoint" + where + " ORDER BY Tid, TS" + limit
	case 3:
		return "SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment" +
			where + " GROUP BY Tid ORDER BY Tid"
	default:
		return "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint" + where + " GROUP BY Tid ORDER BY Tid"
	}
}

// TestPropertyQueryRowsEqualsQuery: the streaming cursor must return
// exactly the rows (order included) of the materializing Query path,
// for randomized queries, worker counts, chunk sizes and both logs
// (even seeds = in memory, odd seeds = in a file).
func TestPropertyQueryRowsEqualsQuery(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		eng := intDB(t, seed)
		eng.chunk = rng2Chunk(seed) // force multi-chunk scans
		eng.SetParallelism(int(workers)%7 + 1)
		rng := rand.New(rand.NewSource(seed ^ 0x05eed))
		for i := 0; i < 6; i++ {
			sql := randomCursorSQL(rng, eng.meta.NumSeries())
			want, err := eng.Execute(context.Background(), sql)
			if err != nil {
				t.Logf("Execute %q: %v", sql, err)
				return false
			}
			rows, err := eng.QueryRows(context.Background(), mustParse(t, sql))
			if err != nil {
				t.Logf("QueryRows %q: %v", sql, err)
				return false
			}
			if !reflect.DeepEqual(rows.Columns(), want.Columns) {
				t.Logf("columns differ for %q", sql)
				return false
			}
			got := collectRows(t, rows)
			if len(got) != len(want.Rows) {
				t.Logf("%q: cursor %d rows, Query %d rows", sql, len(got), len(want.Rows))
				return false
			}
			for r := range got {
				if !reflect.DeepEqual(got[r], want.Rows[r]) {
					t.Logf("%q row %d: cursor %v, Query %v", sql, r, got[r], want.Rows[r])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryRowsEarlyCloseDrainsPool: closing the cursor after one row
// cancels the scan, drains the producer, the pool workers and the
// chunk enumerator, and reports no error.
func TestQueryRowsEarlyCloseDrainsPool(t *testing.T) {
	for _, kind := range []string{"mem", "file"} {
		t.Run(kind, func(t *testing.T) {
			eng := streamDB(t, kind)
			eng.chunk = 2
			eng.SetParallelism(4)
			base := runtime.NumGoroutine()
			rows, err := eng.QueryRows(context.Background(), mustParse(t, "SELECT Tid, TS, Value FROM DataPoint"))
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("no first row: %v", rows.Err())
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("Err after early Close = %v, want nil", err)
			}
			if rows.Next() {
				t.Fatal("Next after Close must report false")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestQueryRowsContextCancelMidScan: cancelling the caller's context
// mid-iteration terminates the stream with ctx.Err() and drains the
// worker pool.
func TestQueryRowsContextCancelMidScan(t *testing.T) {
	for _, kind := range []string{"mem", "file"} {
		t.Run(kind, func(t *testing.T) {
			eng := streamDB(t, kind)
			eng.chunk = 2
			eng.SetParallelism(4)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows, err := eng.QueryRows(ctx, mustParse(t, "SELECT Tid, TS, Value FROM DataPoint"))
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for rows.Next() {
				got++
				if got == 10 {
					cancel()
				}
			}
			if err := rows.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Err after cancel = %v, want context.Canceled", err)
			}
			// 4 groups x 2 series x 3000 ticks: a full scan would be 24000
			// rows; the cancel must stop far short of that.
			if got >= 24000 {
				t.Fatalf("cancel did not stop the stream (%d rows)", got)
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestQueryRowsSequentialCancel covers the 1-worker streaming path, a
// pool of one that walks the chunks in the producer goroutine and must
// still honor cancellation. Small fixed chunks keep the scan from
// finishing in the one or two adaptive chunks streamDB would fill.
func TestQueryRowsSequentialCancel(t *testing.T) {
	for _, kind := range []string{"mem", "file"} {
		t.Run(kind, func(t *testing.T) {
			eng := streamDB(t, kind)
			eng.chunk = 2
			eng.SetParallelism(1)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rows, err := eng.QueryRows(ctx, mustParse(t, "SELECT Tid, TS, Value FROM DataPoint"))
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("no first row: %v", rows.Err())
			}
			cancel()
			for rows.Next() {
			}
			if err := rows.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Err = %v, want context.Canceled", err)
			}
			rows.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestQueryRowsScanTyped: Scan copies into typed destinations and
// rejects mismatches.
func TestQueryRowsScanTyped(t *testing.T) {
	eng := intDB(t, 42)
	rows, err := eng.QueryRows(context.Background(), mustParse(t, "SELECT Tid, TS, Value FROM DataPoint LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		var tid, ts int64
		var v float64
		if err := rows.Scan(&tid, &ts, &v); err != nil {
			t.Fatal(err)
		}
		if tid < 1 {
			t.Fatalf("scanned tid %d", tid)
		}
		var wrong string
		if err := rows.Scan(&wrong, &ts, &v); err == nil {
			t.Fatal("Scan into mismatched type must fail")
		}
		if err := rows.Scan(&tid); err == nil {
			t.Fatal("Scan with wrong arity must fail")
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows")
	}
}

// TestQueryRowsAggregateFallback: aggregate and ORDER BY queries are
// finalized before the cursor walks them but keep identical cursor
// semantics, including Close-before-exhaustion.
func TestQueryRowsAggregateFallback(t *testing.T) {
	eng := intDB(t, 4)
	sql := "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid"
	want, err := eng.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.QueryRows(context.Background(), mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, rows)
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("fallback rows = %v, want %v", got, want.Rows)
	}
	// Close before exhaustion must be clean.
	rows2, err := eng.QueryRows(context.Background(), mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	rows2.Next()
	if err := rows2.Close(); err != nil {
		t.Fatal(err)
	}
	if rows2.Next() {
		t.Fatal("Next after Close must report false")
	}
}
