package modelardb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// groupsConfig builds a database of n single-series groups (no
// correlations, so every series partitions alone), the layout the
// sharded ingestion tests and benchmarks use for disjoint writers.
func groupsConfig(n int) Config {
	cfg := Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{{Name: "Location", Levels: []string{"Park"}}},
	}
	for i := 0; i < n; i++ {
		cfg.Series = append(cfg.Series, SeriesConfig{
			SI: 100, Members: map[string][]string{"Location": {fmt.Sprintf("P%d", i)}},
		})
	}
	return cfg
}

// TestAppendBatchMatchesAppend: a batch ingest must produce exactly
// the database a point-by-point ingest produces.
func TestAppendBatchMatchesAppend(t *testing.T) {
	one, err := Open(groupsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	batch, err := Open(groupsConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()

	var points []DataPoint
	for tick := 0; tick < 500; tick++ {
		for tid := Tid(1); tid <= 4; tid++ {
			points = append(points, DataPoint{Tid: tid, TS: int64(tick) * 100, Value: float32(tick%37) + float32(tid)})
		}
	}
	for _, p := range points {
		if err := one.Append(p.Tid, p.TS, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	// Split the same stream into several AppendBatch calls.
	for i := 0; i < len(points); i += 777 {
		end := min(i+777, len(points))
		if err := batch.AppendBatch(context.Background(), points[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT Tid, COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid ORDER BY Tid",
		"SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS",
	} {
		a, err := one.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		b, err := batch.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Fatalf("%q differs between Append and AppendBatch", sql)
		}
	}
}

// TestAppendBatchConcurrentDisjointGroups: writers on disjoint groups
// do not serialize on a global lock and never corrupt each other's
// state (value is under -race).
func TestAppendBatchConcurrentDisjointGroups(t *testing.T) {
	const nGroups, ticks = 8, 2000
	db, err := Open(groupsConfig(nGroups))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	errs := make([]error, nGroups)
	for w := 0; w < nGroups; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := Tid(w + 1)
			batch := make([]DataPoint, 0, 256)
			for tick := 0; tick < ticks; tick++ {
				batch = append(batch, DataPoint{Tid: tid, TS: int64(tick) * 100, Value: 3})
				if len(batch) == cap(batch) {
					if err := db.AppendBatch(context.Background(), batch); err != nil {
						errs[w] = err
						return
					}
					batch = batch[:0]
				}
			}
			errs[w] = db.AppendBatch(context.Background(), batch)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT COUNT_S(*), SUM_S(*) FROM Segment")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != nGroups*ticks {
		t.Fatalf("count = %g, want %d", got, nGroups*ticks)
	}
	if got := res.Rows[0][1].(float64); got != 3*nGroups*ticks {
		t.Fatalf("sum = %g, want %d", got, 3*nGroups*ticks)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != nGroups*ticks {
		t.Fatalf("Stats.DataPoints = %d, want %d", st.DataPoints, nGroups*ticks)
	}
}

// TestAppendBatchErrors: unknown series reject the whole batch before
// any point is ingested, and a cancelled context stops the call.
func TestAppendBatchErrors(t *testing.T) {
	db, err := Open(groupsConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.AppendBatch(context.Background(), []DataPoint{
		{Tid: 1, TS: 0, Value: 1},
		{Tid: 99, TS: 0, Value: 1},
	})
	if err == nil {
		t.Fatal("unknown tid must fail the batch")
	}
	st, _ := db.Stats()
	if st.DataPoints != 0 {
		t.Fatalf("failed validation must not ingest points, got %d", st.DataPoints)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.AppendBatch(ctx, []DataPoint{{Tid: 1, TS: 0, Value: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AppendBatch = %v, want context.Canceled", err)
	}
	if err := db.AppendBatch(context.Background(), nil); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}
}

// TestAppendBatchDoesNotRetainPoints: AppendBatch is done with its
// slice when it returns (the contract the HTTP append endpoint's reused
// batch relies on), so a caller may overwrite the slice with the next
// batch and both batches read back.
func TestAppendBatchDoesNotRetainPoints(t *testing.T) {
	db, err := Open(groupsConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var want [][]any
	batch := make([]DataPoint, 0, 200)
	for first := 0; first < 200; first += 100 {
		batch = batch[:0]
		for tick := first; tick < first+100; tick++ {
			for tid := Tid(1); tid <= 2; tid++ {
				batch = append(batch, DataPoint{Tid: tid, TS: int64(tick) * 100, Value: float32(tick%13) * float32(tid)})
			}
		}
		if err := db.AppendBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	for tid := 1; tid <= 2; tid++ {
		for tick := range 200 {
			want = append(want, []any{int64(tid), int64(tick) * 100, float64(float32(tick%13) * float32(tid))})
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT Tid, TS, Value FROM DataPoint ORDER BY Tid, TS")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("read back %d rows, want %d; first %v", len(res.Rows), len(want), res.Rows[:min(3, len(res.Rows))])
	}
}

// TestAppendBatchAfterClose: batches against a closed database fail
// with ErrClosed.
func TestAppendBatchAfterClose(t *testing.T) {
	db, err := Open(groupsConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err = db.AppendBatch(context.Background(), []DataPoint{{Tid: 1, TS: 0, Value: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendBatch after Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestOpenValidatesConfig: nonsensical configuration values fail Open
// with a clear error instead of silently misbehaving.
func TestOpenValidatesConfig(t *testing.T) {
	cfg := groupsConfig(1)
	cfg.QueryParallelism = -1
	if _, err := Open(cfg); err == nil {
		t.Fatal("negative QueryParallelism must fail Open")
	}
	cfg = groupsConfig(1)
	cfg.BulkWriteSize = -5
	if _, err := Open(cfg); err == nil {
		t.Fatal("negative BulkWriteSize must fail Open")
	}
}

// TestDBQueryRowsAndPrepare: the DB-level cursor streams the same rows
// Query materializes, and a prepared statement can execute repeatedly
// (including as a cursor) without reparsing.
func TestDBQueryRowsAndPrepare(t *testing.T) {
	db, err := Open(groupsConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tick := 0; tick < 300; tick++ {
		for tid := Tid(1); tid <= 3; tid++ {
			if err := db.Append(tid, int64(tick)*100, float32(tick%11)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT Tid, TS, Value FROM DataPoint"
	want, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][]any
	for rows.Next() {
		got = append(got, append([]any(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("QueryRows returned %d rows, Query %d; contents differ", len(got), len(want.Rows))
	}

	stmt, err := db.Prepare("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid ORDER BY Tid")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	first, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := stmt.Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("prepared execution %d differs", i)
		}
		cur, err := stmt.QueryRows(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]any
		for cur.Next() {
			rows = append(rows, append([]any(nil), cur.Row()...))
		}
		cur.Close()
		if !reflect.DeepEqual(first.Rows, rows) {
			t.Fatalf("prepared cursor execution %d differs", i)
		}
	}
	if _, err := db.Prepare("SELEC nonsense"); err == nil {
		t.Fatal("Prepare must surface parse errors")
	}
}
