package cluster

import (
	"fmt"
	"testing"
)

// TestAckClientAppend pins the Client.Append row of the
// acknowledgement table in docs/operations.md. Append returns once the
// master buffers the point: until its worker's batch is sealed and
// acknowledged, the master alone holds it. After the acknowledgement
// the worker holds it as DB.AppendBatch does, so a query lags by up to
// LengthLimit ticks per group until an emit or Flush. Flush seals,
// waits for every batch and flushes the workers; Close's drain is
// pinned by TestCloseKeepsAcceptedPoints.
func TestAckClientAppend(t *testing.T) {
	const limit, ticks = 10, 25
	cfg := fleetConfig()
	cfg.LengthLimit = limit
	worker, _, addr := startWorker(t, cfg)
	c, err := Dial(cfg, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := func() string {
		t.Helper()
		res, err := c.Query(t.Context(), "SELECT COUNT(*) FROM DataPoint WHERE Tid = 1")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			return "0"
		}
		return fmt.Sprint(res.Rows[0][0])
	}
	// Fewer points than a batch (1 024): Append has returned, the
	// worker has none of them.
	for tick := range int64(ticks) {
		if err := c.Append(t.Context(), 1, tick*1000, 7); err != nil {
			t.Fatal(err)
		}
	}
	st, err := worker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != 0 {
		t.Fatalf("worker ingested %d points of an unsealed batch, want 0", st.DataPoints)
	}
	if got := count(); got != "0" {
		t.Fatalf("a query sees %s points the master still buffers, want 0", got)
	}
	// AppendBatch seals and waits for the acknowledgement: the worker
	// holds every point, and a query sees the emitted segments only.
	if err := c.AppendBatch(t.Context(), nil); err != nil {
		t.Fatal(err)
	}
	if st, err = worker.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.DataPoints != ticks {
		t.Fatalf("worker holds %d acknowledged points, want %d", st.DataPoints, ticks)
	}
	if got, want := count(), fmt.Sprint((ticks-1)/limit*limit); got != want {
		t.Fatalf("acknowledged, unflushed: a query sees %s points, want the %s in emitted segments", got, want)
	}
	if err := c.Flush(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != fmt.Sprint(ticks) {
		t.Fatalf("after Flush a query sees %s points, want %d", got, ticks)
	}
}
