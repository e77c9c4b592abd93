package modelardb

import (
	"context"
	"fmt"
	"testing"
)

// countOf returns COUNT(*) of the DataPoint view for one series.
func countOf(t *testing.T, db *DB, tid Tid) int64 {
	t.Helper()
	res, err := db.Query(context.Background(), fmt.Sprintf("SELECT COUNT(*) FROM DataPoint WHERE Tid = %d", tid))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return 0
	}
	switch n := res.Rows[0][0].(type) {
	case int64:
		return n
	case float64:
		return int64(n)
	}
	t.Fatalf("COUNT(*) cell %T", res.Rows[0][0])
	return 0
}

// TestAckDBAppend pins the DB.Append and AppendBatch row of the
// acknowledgement table in docs/operations.md. An accepted point is
// held by the database: on the WAL first, then in its group's model.
// Under wal_fsync always it survives a crash the moment the call
// returns. A query sees it once its segment is emitted, so up to
// LengthLimit ticks per group lag behind until the next emit or Flush.
func TestAckDBAppend(t *testing.T) {
	const limit, ticks = 10, 25
	cfg := walConfig(2, t.TempDir(), t.TempDir(), "always")
	cfg.LengthLimit = limit
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Constant values: every model runs to LengthLimit, and a segment
	// is emitted when the tick after it arrives.
	var batch []DataPoint
	for tick := range int64(ticks) {
		if err := db.Append(1, tick*100, 7); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, DataPoint{Tid: 2, TS: tick * 100, Value: 9})
	}
	if err := db.AppendBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	for tid := Tid(1); tid <= 2; tid++ {
		if got, want := countOf(t, db, tid), int64((ticks-1)/limit*limit); got != want {
			t.Errorf("tid %d before Flush: a query sees %d points, want the %d in emitted segments", tid, got, want)
		}
	}
	// A crash now: no Flush, no Close. The WAL replays every
	// acknowledged point.
	reopened, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := reopened.Flush(); err != nil {
		t.Fatal(err)
	}
	for tid := Tid(1); tid <= 2; tid++ {
		if got := countOf(t, reopened, tid); got != ticks {
			t.Errorf("tid %d after a crash and Flush: %d points, want all %d acknowledged", tid, got, ticks)
		}
	}
}
