package query

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"modelardb/internal/sqlparse"
)

// TestScanHookObservesAndInjects: the scan hook fires once per scanned
// segment on every executor path (a pool of several workers and a pool
// of one, aggregate and select) and an error it returns aborts the
// query — the fault-injection contract the cluster fail-fast tests
// build on. A pool of one runs in the caller's goroutine: while its
// hook runs, no goroutine beyond those alive before Execute exists.
func TestScanHookObservesAndInjects(t *testing.T) {
	f := newFixture(t)
	for _, par := range []int{0, 1} {
		f.eng.SetParallelism(par)
		for _, sql := range []string{
			"SELECT SUM_S(*) FROM Segment",
			"SELECT Tid FROM Segment",
		} {
			var segs atomic.Int64
			var spawned atomic.Bool
			base := runtime.NumGoroutine()
			f.eng.SetScanHook(func(ctx context.Context) error {
				if ctx.Err() != nil {
					t.Error("hook ran with an already-cancelled context")
				}
				segs.Add(1)
				if runtime.NumGoroutine() > base {
					spawned.Store(true)
				}
				return nil
			})
			if _, err := f.eng.Execute(context.Background(), sql); err != nil {
				t.Fatalf("par=%d %s: %v", par, sql, err)
			}
			if segs.Load() == 0 {
				t.Fatalf("par=%d %s: hook never ran", par, sql)
			}
			if par == 1 && spawned.Load() {
				t.Fatalf("par=1 %s: the pool of one started goroutines", sql)
			}
			sentinel := errors.New("injected scan failure")
			f.eng.SetScanHook(func(ctx context.Context) error { return sentinel })
			if _, err := f.eng.Execute(context.Background(), sql); !errors.Is(err, sentinel) {
				t.Fatalf("par=%d %s: err = %v, want the injected failure", par, sql, err)
			}
		}
	}
	f.eng.SetScanHook(nil)
	if _, err := f.eng.Execute(context.Background(), "SELECT SUM_S(*) FROM Segment"); err != nil {
		t.Fatalf("removed hook still interferes: %v", err)
	}
}

// TestValidateMatchesExecution: Validate reports exactly the compile
// errors worker-side execution would, and passes what execution passes — the
// contract the cluster master relies on to reject bad queries before
// scattering them.
func TestValidateMatchesExecution(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		sql string
		ok  bool
	}{
		{"SELECT SUM_S(*) FROM Segment", true},
		{"SELECT Park, AVG_S(*) FROM Segment GROUP BY Park", true},
		{"SELECT Nope FROM Segment", false},
		{"SELECT Value FROM Segment", false},
		{"SELECT Park FROM Segment GROUP BY Park", false},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.sql, err)
		}
		verr := f.eng.Validate(q)
		if (verr == nil) != c.ok {
			t.Errorf("Validate(%s) = %v, want ok=%v", c.sql, verr, c.ok)
		}
		_, xerr := partialOf(f.eng, q)
		if (verr == nil) != (xerr == nil) {
			t.Errorf("%s: Validate = %v but ExecutePartialChunks = %v", c.sql, verr, xerr)
		}
	}
}
