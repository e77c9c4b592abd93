package modelardb

import (
	"context"
	"sync"
	"testing"
)

// TestOnlineAnalytics runs aggregate queries concurrently with
// ingestion — the paper's O scenario (§7.3): ModelarDB supports online
// query processing, unlike the file formats that must be fully written
// first. The test mainly guards the locking of the ingestion and query
// paths (run under -race).
func TestOnlineAnalytics(t *testing.T) {
	db, err := Open(Config{
		ErrorBound: RelBound(5),
		Dimensions: []Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Correlations: []string{
			"Location 1",
		},
		Series: []SeriesConfig{
			{SI: 10, Members: map[string][]string{"Location": {"A"}}},
			{SI: 10, Members: map[string][]string{"Location": {"A"}}},
			{SI: 10, Members: map[string][]string{"Location": {"B"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const ticks = 5000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := db.Query(context.Background(), "SELECT Park, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Park")
			if err != nil {
				t.Errorf("online query: %v", err)
				return
			}
			// Sums must be consistent with counts at all times: value 5
			// everywhere means sum = 5*count.
			for _, row := range res.Rows {
				sum := row[1].(float64)
				count := row[2].(float64)
				if sum != 5*count {
					t.Errorf("inconsistent online result: sum=%g count=%g", sum, count)
					return
				}
			}
		}
	}()
	for tick := 0; tick < ticks; tick++ {
		ts := int64(tick) * 10
		for tid := Tid(1); tid <= 3; tid++ {
			if err := db.Append(tid, ts, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT COUNT_S(*) FROM Segment")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != 3*ticks {
		t.Fatalf("final count = %g, want %d", got, 3*ticks)
	}
}

// TestConcurrentQueryAppendFlush hammers the parallel query executor
// (8 scan workers) with simultaneous ingestion, explicit flushes and
// queries on both views and both store kinds. Its value is under
// -race: the chunked scan, the worker pool and the scan scratch must
// stay sound while the store is mutating underneath them.
func TestConcurrentQueryAppendFlush(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{
				ErrorBound: RelBound(0),
				Dimensions: []Dimension{{Name: "Location", Levels: []string{"Park"}}},
				Correlations: []string{
					"Location 1",
				},
				Series: []SeriesConfig{
					{SI: 10, Members: map[string][]string{"Location": {"A"}}},
					{SI: 10, Members: map[string][]string{"Location": {"A"}}},
					{SI: 10, Members: map[string][]string{"Location": {"B"}}},
					{SI: 10, Members: map[string][]string{"Location": {"B"}}},
				},
				QueryParallelism: 8,
				BulkWriteSize:    16, // small, so queries race real flushes
			}
			if backend == "file" {
				cfg.Path = t.TempDir()
			}
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			const ticks = 3000
			done := make(chan struct{})
			var wg sync.WaitGroup
			queries := []string{
				"SELECT Park, SUM_S(*), COUNT_S(*) FROM Segment GROUP BY Park",
				"SELECT COUNT(*) FROM DataPoint",
				"SELECT Tid, StartTime, EndTime FROM Segment WHERE Park = 'A'",
			}
			for q := 0; q < 3; q++ {
				wg.Add(1)
				go func(sql string) {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if _, err := db.Query(context.Background(), sql); err != nil {
							t.Errorf("concurrent query %q: %v", sql, err)
							return
						}
					}
				}(queries[q])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if err := db.Flush(); err != nil {
						t.Errorf("concurrent flush: %v", err)
						return
					}
				}
			}()
			for tick := 0; tick < ticks; tick++ {
				ts := int64(tick) * 10
				for tid := Tid(1); tid <= 4; tid++ {
					if err := db.Append(tid, ts, 7); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(done)
			wg.Wait()
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(context.Background(), "SELECT COUNT_S(*) FROM Segment")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].(float64); got != 4*ticks {
				t.Fatalf("final count = %g, want %d", got, 4*ticks)
			}
		})
	}
}

// TestParallelQueries runs many simultaneous readers over a static
// store, exercising the store's read path.
func TestParallelQueries(t *testing.T) {
	db, err := Open(Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Series:     []SeriesConfig{{SI: 10, Members: map[string][]string{"Location": {"A"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tick := 0; tick < 2000; tick++ {
		db.Append(1, int64(tick)*10, float32(tick%50))
	}
	db.Flush()
	want, err := db.Query(context.Background(), "SELECT SUM_S(*) FROM Segment")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := want.Rows[0][0].(float64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := db.Query(context.Background(), "SELECT SUM_S(*) FROM Segment")
				if err != nil {
					t.Errorf("parallel query: %v", err)
					return
				}
				if res.Rows[0][0].(float64) != wantSum {
					t.Errorf("parallel query sum = %v, want %g", res.Rows[0][0], wantSum)
					return
				}
			}
		}()
	}
	wg.Wait()
}
