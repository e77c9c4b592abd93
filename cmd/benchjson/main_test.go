package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: modelardb
cpu: Intel(R) Xeon(R) CPU @ 2.70GHz
BenchmarkIngestAppendSerial-4   	 6000000	       185.3 ns/op	      24 B/op	       2 allocs/op
BenchmarkParallelSumDataPointView/workers=1-4  	     340	   3507170 ns/op	 1.000 gomaxprocs
PASS
ok  	modelardb	42.0s
`

func TestParse(t *testing.T) {
	rec, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rec.Benches), rec.Benches)
	}
	if rec.CPUModel != "Intel(R) Xeon(R) CPU @ 2.70GHz" {
		t.Fatalf("cpu model = %q", rec.CPUModel)
	}
	by := rec.byName()
	// The -GOMAXPROCS suffix is stripped so records from machines with
	// different core counts compare by name.
	b, ok := by["BenchmarkIngestAppendSerial"]
	if !ok || b.NsPerOp != 185.3 || b.Iterations != 6000000 {
		t.Fatalf("IngestAppendSerial = %+v ok=%v", b, ok)
	}
	if b.Metrics["B/op"] != 24 || b.Metrics["allocs/op"] != 2 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	p, ok := by["BenchmarkParallelSumDataPointView/workers=1"]
	if !ok || p.Metrics["gomaxprocs"] != 1 {
		t.Fatalf("parallel bench = %+v ok=%v", p, ok)
	}
}

// writeBenches writes a record with full Benchmark values (metrics
// included) for the allocation-gate tests.
func writeBenches(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	rec := &Record{GoOS: "linux", GoArch: "amd64", CPUs: 4, Benches: benches}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGatesAllocations(t *testing.T) {
	dir := t.TempDir()
	base := writeBenches(t, dir, "base.json", []Benchmark{
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"B/op": 1024, "allocs/op": 100}},
	})
	// Allocations doubled is a regression no matter the machine.
	cur := writeBenches(t, dir, "cur.json", []Benchmark{
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 400,
			Metrics: map[string]float64{"B/op": 1024, "allocs/op": 200}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur, "-threshold", "15"}); err == nil {
		t.Fatal("2x allocs/op regression must fail")
	}
	// Fewer allocations than baseline always passes.
	cur2 := writeBenches(t, dir, "cur2.json", []Benchmark{
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"B/op": 64, "allocs/op": 2}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur2, "-threshold", "15"}); err != nil {
		t.Fatalf("improved allocations must pass: %v", err)
	}
	// A baseline metric missing from the current run fails loudly — a
	// dropped b.ReportAllocs must not silently weaken the gate.
	cur3 := writeBenches(t, dir, "cur3.json", []Benchmark{
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 200},
	})
	if err := compare([]string{"-baseline", base, "-current", cur3, "-threshold", "15"}); err == nil {
		t.Fatal("allocation metric dropped from current run must fail")
	}
	// A baseline benchmark missing from the current run fails loudly
	// too — a renamed benchmark must not silently weaken the gate.
	cur4 := writeBenches(t, dir, "cur4.json", []Benchmark{
		{Name: "BenchmarkOther", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"B/op": 1024, "allocs/op": 100}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur4}); err == nil {
		t.Fatal("missing gated benchmark must fail")
	}
}

func TestCompareGatesAllowlistedMetrics(t *testing.T) {
	dir := t.TempDir()
	base := writeBenches(t, dir, "base.json", []Benchmark{
		{Name: "BenchmarkGroupCommit", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"allocs/op": 10, "fsyncs/point": 0.02, "q-p99-ms": 5}},
	})
	// fsyncs/point doubled: beyond the 30% metric threshold, fails even
	// though ns/op is unchanged. q-p99-ms stays informational — its 10x
	// jump alone must not fail the gate.
	cur := writeBenches(t, dir, "cur.json", []Benchmark{
		{Name: "BenchmarkGroupCommit", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"allocs/op": 10, "fsyncs/point": 0.04, "q-p99-ms": 50}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur}); err == nil {
		t.Fatal("2x fsyncs/point regression must fail the metric gate")
	}
	// Within the metric threshold: passes.
	cur2 := writeBenches(t, dir, "cur2.json", []Benchmark{
		{Name: "BenchmarkGroupCommit", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"allocs/op": 10, "fsyncs/point": 0.025, "q-p99-ms": 50}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur2}); err != nil {
		t.Fatalf("+25%% fsyncs/point within the 30%% metric threshold must pass: %v", err)
	}
	// A gated metric dropped from the current run fails loudly — a
	// removed b.ReportMetric must not silently weaken the gate.
	cur3 := writeBenches(t, dir, "cur3.json", []Benchmark{
		{Name: "BenchmarkGroupCommit", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"allocs/op": 10, "q-p99-ms": 5}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur3}); err == nil {
		t.Fatal("gated metric missing from current run must fail")
	}
	// -gate-metrics "" demotes everything back to informational.
	if err := compare([]string{"-baseline", base, "-current", cur, "-gate-metrics", ""}); err != nil {
		t.Fatalf("empty allowlist must not gate custom metrics: %v", err)
	}
	// A tighter -metric-threshold fails what the default admits.
	if err := compare([]string{"-baseline", base, "-current", cur2, "-metric-threshold", "10"}); err == nil {
		t.Fatal("+25% fsyncs/point must fail a 10% metric threshold")
	}
}

func TestCompareZeroAllocBaseline(t *testing.T) {
	dir := t.TempDir()
	base := writeBenches(t, dir, "base.json", []Benchmark{
		{Name: "BenchmarkTight", Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0}},
	})
	// Zero-alloc baseline: any current allocation fails — there is no
	// ratio to threshold against zero.
	cur := writeBenches(t, dir, "cur.json", []Benchmark{
		{Name: "BenchmarkTight", Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"B/op": 16, "allocs/op": 1}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur, "-threshold", "15"}); err == nil {
		t.Fatal("allocation introduced against a zero-alloc baseline must fail")
	}
	// Still zero: passes.
	cur2 := writeBenches(t, dir, "cur2.json", []Benchmark{
		{Name: "BenchmarkTight", Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0}},
	})
	if err := compare([]string{"-baseline", base, "-current", cur2, "-threshold", "15"}); err != nil {
		t.Fatalf("zero-alloc fixpoint must pass: %v", err)
	}
}

// TestCompareGatesCountsNotTime: the gate reads counts only, so a
// current run far slower than the baseline passes on equal counts,
// while one more read per segment fails.
func TestCompareGatesCountsNotTime(t *testing.T) {
	dir := t.TempDir()
	base := writeBenches(t, dir, "base.json", []Benchmark{
		{Name: "BenchmarkScan", Iterations: 1, NsPerOp: 1000,
			Metrics: map[string]float64{"reads/segment": 0.001}},
	})
	slower := writeBenches(t, dir, "slower.json", []Benchmark{
		{Name: "BenchmarkScan", Iterations: 1, NsPerOp: 100000,
			Metrics: map[string]float64{"reads/segment": 0.001}},
	})
	args := []string{"-baseline", base, "-gate-metrics", "reads/segment", "-current"}
	if err := compare(append(args, slower)); err != nil {
		t.Fatalf("100x ns/op on equal counts must pass: %v", err)
	}
	moreReads := writeBenches(t, dir, "reads.json", []Benchmark{
		{Name: "BenchmarkScan", Iterations: 1, NsPerOp: 1,
			Metrics: map[string]float64{"reads/segment": 1}},
	})
	if err := compare(append(args, moreReads)); err == nil {
		t.Fatal("a read per segment against a baseline of a read per chunk must fail")
	}
}

// TestCompareFailsRowGatingNothing: a baseline row with no gated count
// — only a time, or only informational metrics — would hold nothing,
// so it fails loudly, as a renamed benchmark does.
func TestCompareFailsRowGatingNothing(t *testing.T) {
	dir := t.TempDir()
	for _, row := range []Benchmark{
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 200},
		{Name: "BenchmarkHot", Iterations: 1, NsPerOp: 200,
			Metrics: map[string]float64{"q-p99-ms": 5}},
	} {
		path := writeBenches(t, dir, "rec.json", []Benchmark{row})
		if err := compare([]string{"-baseline", path, "-current", path}); err == nil {
			t.Fatalf("baseline row %+v gates no count and must fail", row)
		}
	}
}
