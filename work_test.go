// TestWorkRecord is the work record: what each query shape of the five
// benchmark workloads costs on one node, counted rather than timed, and
// checked against the committed bench/work.json. Per query it records
// the query trace's counters (segments scanned, chunks, rows, series
// folded in closed form, points reconstructed, row runs appended,
// values model views decoded for folds) on its first run, the values
// views decoded on a second run of it (what the segments' memos
// spared), the segment store's log reads and bytes read, and the
// allocations and allocated bytes of one execution. Counts are exact; allocations may
// drift by workAllocShare plus workAllocSlack, allocated bytes by
// workAllocShare plus workByteSlack. Rewrite the record with
//
//	go test -run TestWorkRecord -update .
//
// and commit the diff: it names the layer a change moved.
package modelardb

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/tsgen"
)

const workPath = "bench/work.json"

// workSetup is written into the record so that a reader of the JSON
// knows what the numbers count.
const workSetup = "One in-memory node, DefaultConfig with QueryParallelism 1, loaded by AppendBatch in " +
	"4096-point batches and flushed. EP: tsgen 4 entities x 4 measures x 2000 ticks, seed 42, gap rate 0.0005, " +
	"bound 1%, grouped as the benchmark's EP clauses; EH: tsgen 8 series x 3000 ticks, seed 43, gap rate 0.0005, " +
	"grouped by 0.16666667, at 5% (scatter_tcp2's shapes) and 0% (mixed_http's). The SQL is the benchmark's " +
	"query shapes with fixed Tids and ranges, run through DB.Query. segments, chunks, rows, folded_series, " +
	"decoded_points, runs (the (segment, series) runs a row scan appended) and view_values (values model views decoded to answer folds) are the query trace's counters " +
	"on the query's first run, after the queries above it; view_values_repeat is view_values on a second run of the query; reads and read_bytes the store's ReadStats for the first run; " +
	"allocs and alloc_bytes are runtime.MemStats' Mallocs and TotalAlloc per run over the same 5 runs after one warm-up " +
	"(as testing.AllocsPerRun counts), checked within 10% + 10 and 10% + 4096 (not under -race)."

// workAllocShare and workAllocSlack bound how far allocs may move
// before the record fails, and workAllocShare and workByteSlack how far
// alloc_bytes may: a relative share plus a constant, since pools and
// map growth make a few allocations a run depend on what ran before.
const (
	workAllocShare = 0.10
	workAllocSlack = 10
	workByteSlack  = 4096
)

// workRow is one query of the record.
type workRow struct {
	Name             string  `json:"name"`
	SQL              string  `json:"sql"`
	Segments         int64   `json:"segments"`
	Chunks           int64   `json:"chunks"`
	Rows             int64   `json:"rows"`
	FoldedSeries     int64   `json:"folded_series"`
	DecodedPoints    int64   `json:"decoded_points"`
	Runs             int64   `json:"runs"`
	ViewValues       int64   `json:"view_values"`
	ViewValuesRepeat int64   `json:"view_values_repeat"`
	Reads            int64   `json:"reads"`
	ReadBytes        int64   `json:"read_bytes"`
	Allocs           float64 `json:"allocs"`
	AllocBytes       float64 `json:"alloc_bytes"`
}

type workRecord struct {
	Setup string    `json:"setup"`
	Rows  []workRow `json:"rows"`
}

// workData is one loaded node and the queries asked of it, by name.
type workData struct {
	cfg     Config
	d       *tsgen.Dataset
	queries [][2]string
}

func (w workData) rows(t *testing.T) []workRow {
	t.Helper()
	for _, s := range w.d.Series {
		w.cfg.Series = append(w.cfg.Series, SeriesConfig{SI: s.SI, Source: s.Source, Members: s.Members})
	}
	w.cfg.Dimensions = w.d.Dimensions
	w.cfg.QueryParallelism = 1
	db, err := Open(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := make([]DataPoint, 0, 4096)
	ship := func() {
		if err := db.AppendBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	w.d.Points(func(p core.DataPoint) error {
		if batch = append(batch, p); len(batch) == cap(batch) {
			ship()
		}
		return nil
	})
	ship()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var last *obs.Trace
	db.engine.SetObserver(&obs.QueryObserver{OnTrace: func(tr *obs.Trace) { last = tr }})
	var out []workRow
	for _, q := range w.queries {
		name, sql := q[0], q[1]
		reads0, bytes0 := db.store.ReadStats()
		if _, err := db.Query(context.Background(), sql); err != nil {
			t.Fatalf("%s: %s: %v", name, sql, err)
		}
		reads1, bytes1 := db.store.ReadStats()
		row := workRow{
			Name: name, SQL: sql,
			Segments: last.Count(obs.Segments), Chunks: last.Count(obs.Chunks), Rows: last.Count(obs.Rows),
			FoldedSeries: last.Count(obs.FoldedSeries), DecodedPoints: last.Count(obs.DecodedPoints), Runs: last.Count(obs.SelectRuns),
			ViewValues: last.Count(obs.ViewValues),
			Reads:      reads1 - reads0, ReadBytes: bytes1 - bytes0,
		}
		if _, err := db.Query(context.Background(), sql); err != nil {
			t.Fatalf("%s: %s: %v", name, sql, err)
		}
		row.ViewValuesRepeat = last.Count(obs.ViewValues)
		row.Allocs, row.AllocBytes = allocsPerRun(5, func() {
			if _, err := db.Query(context.Background(), sql); err != nil {
				t.Fatal(err)
			}
		})
		out = append(out, row)
	}
	return out
}

// allocsPerRun is testing.AllocsPerRun that also returns the bytes the
// same runs allocated: one warm-up call at GOMAXPROCS 1, then the
// average Mallocs and TotalAlloc over runs calls, in whole units.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / uint64(runs)), float64((m1.TotalAlloc - m0.TotalAlloc) / uint64(runs))
}

// workQueries returns every row of the record, in order.
func workQueries(t *testing.T) []workRow {
	ep := tsgen.EP(tsgen.EPConfig{Entities: 4, Ticks: 2000, Seed: 42, GapRate: 0.0005, StartTime: 1_611_792_000_000})
	epCfg := DefaultConfig()
	epCfg.ErrorBound = RelBound(1)
	epCfg.Correlations = []string{"Production 0, Measure 1 Production", "Production 0, Measure 1 Temperature"}
	const tids = "2, 5, 7, 11, 14"
	rows := workData{cfg: epCfg, d: ep, queries: [][2]string{
		{"ingest_bulk q1", "SELECT COUNT_S(*) FROM Segment"},
		{"ingest_bulk q2", "SELECT SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment"},
		{"agg_segment q1", "SELECT SUM_S(*), COUNT_S(*), MIN_S(*), MAX_S(*) FROM Segment"},
		{"agg_segment q2", "SELECT Category, CUBE_SUM_MONTH(*) FROM Segment WHERE Category = 'Production' GROUP BY Category"},
		{"agg_segment q3", "SELECT Entity, Tid, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Entity, Tid"},
		{"agg_segment q4", "SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (" + tids + ") GROUP BY Tid"},
		{"agg_datapoint q1", "SELECT SUM(Value), COUNT(*), MIN(Value), MAX(Value) FROM DataPoint"},
		{"agg_datapoint q2", "SELECT Category, SUM(Value) FROM DataPoint WHERE Category = 'Production' GROUP BY Category"},
		{"agg_datapoint q3", "SELECT Entity, Tid, SUM(Value) FROM DataPoint GROUP BY Entity, Tid"},
		{"agg_datapoint q4", "SELECT Tid, SUM(Value) FROM DataPoint WHERE Tid IN (" + tids + ") GROUP BY Tid"},
	}}.rows(t)

	eh := tsgen.EH(tsgen.EHConfig{Series: 8, Ticks: 3000, Seed: 43, GapRate: 0.0005})
	si := eh.SI
	between := func(from, ticks int64) string {
		return fmt.Sprintf("TS BETWEEN %d AND %d", from*si, (from+ticks-1)*si)
	}
	scatter := DefaultConfig()
	scatter.ErrorBound = RelBound(5)
	scatter.Correlations = []string{"0.16666667"}
	rows = append(rows, workData{cfg: scatter, d: eh, queries: [][2]string{
		{"scatter_tcp2 q1", "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid"},
		{"scatter_tcp2 q2", "SELECT Entity, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Entity"},
		{"scatter_tcp2 q3", "SELECT Tid, TS, Value FROM DataPoint WHERE " + between(1200, 300) + " ORDER BY Tid, TS"},
	}}.rows(t)...)
	mixed := DefaultConfig()
	mixed.ErrorBound = RelBound(0)
	rows = append(rows, workData{cfg: mixed, d: eh, queries: [][2]string{
		{"mixed_http q1", "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 3 AND " + between(1717, 1)},
		{"mixed_http q2", "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 6 AND " + between(420, 100)},
		{"mixed_http q3", "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint WHERE Tid IN (1, 2, 4, 5, 7) AND " + between(900, 1000) + " GROUP BY Tid"},
		{"mixed_http q4", "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (2, 3, 6, 8) AND " + between(1500, 1000)},
	}}.rows(t)...)
	return rows
}

func TestWorkRecord(t *testing.T) {
	rows := workQueries(t)
	if *updateFootprint {
		out, err := json.MarshalIndent(workRecord{Setup: workSetup, Rows: rows}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var rec workRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", workPath, err)
	}
	if diff := diffWork(rec.Rows, rows); len(diff) > 0 {
		t.Errorf("the work of a query moved; if that is the change's claim, rerun with -update and commit %s:\n  %s",
			workPath, strings.Join(diff, "\n  "))
	}
}

// diffWork describes, one line per query, how got differs from want
// beyond the allocation tolerance; it is empty when they agree.
func diffWork(want, got []workRow) []string {
	gotBy := make(map[string]workRow, len(got))
	for _, g := range got {
		gotBy[g.Name] = g
	}
	var lines []string
	for _, w := range want {
		g, ok := gotBy[w.Name]
		if !ok {
			lines = append(lines, w.Name+": in the record, not computed")
			continue
		}
		delete(gotBy, w.Name)
		var parts []string
		count := func(name string, a, b int64) {
			if a != b {
				parts = append(parts, fmt.Sprintf("%s %d → %d", name, a, b))
			}
		}
		if w.SQL != g.SQL {
			parts = append(parts, fmt.Sprintf("sql %q → %q", w.SQL, g.SQL))
		}
		count("segments", w.Segments, g.Segments)
		count("chunks", w.Chunks, g.Chunks)
		count("rows", w.Rows, g.Rows)
		count("folded_series", w.FoldedSeries, g.FoldedSeries)
		count("decoded_points", w.DecodedPoints, g.DecodedPoints)
		count("runs", w.Runs, g.Runs)
		count("view_values", w.ViewValues, g.ViewValues)
		count("view_values_repeat", w.ViewValuesRepeat, g.ViewValuesRepeat)
		count("reads", w.Reads, g.Reads)
		count("read_bytes", w.ReadBytes, g.ReadBytes)
		if !raceEnabled && math.Abs(g.Allocs-w.Allocs) > workAllocShare*w.Allocs+workAllocSlack {
			parts = append(parts, fmt.Sprintf("allocs %.0f → %.0f", w.Allocs, g.Allocs))
		}
		if !raceEnabled && math.Abs(g.AllocBytes-w.AllocBytes) > workAllocShare*w.AllocBytes+workByteSlack {
			parts = append(parts, fmt.Sprintf("alloc_bytes %.0f → %.0f", w.AllocBytes, g.AllocBytes))
		}
		if len(parts) > 0 {
			lines = append(lines, w.Name+": "+strings.Join(parts, ", "))
		}
	}
	for name := range gotBy {
		lines = append(lines, name+": computed, not in the record")
	}
	return lines
}
