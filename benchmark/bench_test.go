package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCode keeps the contract file and the frozen
// definitions in workloads.go identical.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, workloads.go says %d", b.RunSeconds, runSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go has %q / %q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in workloads.go", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, workloads.go has %+v", kind, i, got[i], want[i])
			}
			m := got[i]
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("per-layer metric %s has a bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract requires a setup_s metric in s, lower is better")
	}
}

func tinyEnv(t *testing.T) *env {
	return &env{sc: tinyScale, seed: 42, window: 300 * time.Millisecond, tmp: t.TempDir(), log: io.Discard}
}

// TestSmoke runs all five workloads, untraced and traced, at a tiny
// scale and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t)
			var r *report
			var err error
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
				r, err = e.runTraced(context.Background(), def, filepath.Join(t.TempDir(), "trace.json"))
			} else {
				r, err = e.run(context.Background(), def)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s is not emitted", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for name := range r.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: malformed metric name %q", w.Name, name)
				}
			}
			var out bytes.Buffer
			r.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line must have exactly correct, attempted, failed and metrics: %s", w.Name, lines[len(lines)-1])
			}
		}
	}
}

// TestTraceFile checks the span file of a traced run: every span
// closed, parents before children, one operation id per tree.
func TestTraceFile(t *testing.T) {
	def, _ := findWorkload(wScatterTCP2)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := tinyEnv(t).runTraced(context.Background(), def, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 || file.Meta["seed"] == nil {
		t.Fatalf("trace file has %d spans, meta %v", len(file.Spans), file.Meta)
	}
	for i, s := range file.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s never ended", i, s.Name)
		}
		if s.Parent >= i {
			t.Errorf("span %d %s has parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 && file.Spans[s.Parent].Op != s.Op {
			t.Errorf("span %d %s is in operation %d, its parent in %d", i, s.Name, s.Op, file.Spans[s.Parent].Op)
		}
	}
}

// TestOracleTrips corrupts one expected value and requires the run to
// count failed operations and report itself incorrect.
func TestOracleTrips(t *testing.T) {
	for _, name := range []string{wAggSegment, wMixedHTTP} {
		def, _ := findWorkload(name)
		e := tinyEnv(t)
		inst, _, _, err := e.setUp(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport(e, def, false)
		p := newPanels(inst, r)
		s := &samples{queryMs: map[string][]float64{}}
		p.refresh(context.Background(), s, false)
		if r.Failed != 0 {
			t.Fatalf("%s: clean refresh failed: %v", name, r.Failures)
		}
		// The answer was right; now make the oracle expect 3% more.
		clear(p.verified)
		for _, want := range p.want {
			for _, a := range want.groups {
				a.sum *= 1.03
			}
		}
		p.refresh(context.Background(), s, false)
		if r.Failed == 0 {
			t.Errorf("%s: a corrupted expected value did not fail any operation", name)
		}
		if err := inst.close(); err != nil {
			t.Error(err)
		}
	}
}

// TestPinsAbort checks that a pinned checksum that no longer matches
// aborts the run.
func TestPinsAbort(t *testing.T) {
	def, _ := findWorkload(wAggSegment)
	e := tinyEnv(t)
	e.pins = true
	key := pinKey(def.name, e.seed)
	old, had := pinned[key]
	pinned[key] = 1
	defer func() {
		if had {
			pinned[key] = old
		} else {
			delete(pinned, key)
		}
	}()
	if _, err := e.run(context.Background(), def); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("run with a wrong pin returned %v, want a checksum error", err)
	}
}

// TestSeedsDiffer checks that the seed is an input knob: two seeds,
// two checksums; one seed, one checksum.
func TestSeedsDiffer(t *testing.T) {
	for _, def := range workloadDefs {
		a, err := generate(def, tinyScale, 42, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(def, tinyScale, 42, 10)
		c, _ := generate(def, tinyScale, 43, 10)
		if a.checksum != b.checksum {
			t.Errorf("%s: one seed gave two checksums", def.name)
		}
		if a.checksum == c.checksum {
			t.Errorf("%s: seeds 42 and 43 gave one checksum", def.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if val, p := tail(v); val != 90 || p != 90 {
		t.Errorf("tail = %v at p%v, want 90 at p90", val, p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "refresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		next []float64
		want string
	}{
		{[]float64{104, 105, 103, 104, 106}, "ok"},
		{[]float64{120, 121, 119, 120, 122}, "regressed"},
		{[]float64{80, 81, 79, 80, 82}, "ok"},
		{[]float64{90, 130, 100, 140, 95}, "unresolved"},
	} {
		if got, _ := verdict(d, base, c.next); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.next, got, c.want)
		}
	}
	up := metricDef{Name: "ingest_points_per_s", Better: "higher", Bound: 0.10}
	if got, _ := verdict(up, base, []float64{80, 81, 79, 80, 82}); got != "regressed" {
		t.Errorf("a 20%% lower rate is %s, want regressed", got)
	}
}
