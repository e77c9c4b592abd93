// Command benchjson turns `go test -bench` output into a stable JSON
// record and compares two such records as a regression gate — the
// machinery behind `make bench-record` (the CI benchmark artifact) and
// `make bench-compare` (fail the build on a hot-path regression).
//
//	benchjson record  -o BENCH_results.json [-md BENCH_results.md] [bench.txt]
//	benchjson compare -baseline bench/baseline.json -current BENCH_gate.json \
//	                  [-threshold 15] [-gate-metrics fsyncs/point] [-metric-threshold 30]
//
// record parses benchmark result lines (name, iterations, then
// value/unit pairs such as "185.3 ns/op" or "24 B/op") from a file or
// stdin, strips the -GOMAXPROCS suffix from names so records taken on
// machines with different core counts stay comparable, and writes one
// JSON document plus an optional markdown table.
//
// compare gates counts only, never time: a benchmark's ns/op depends
// on the machine and its neighbours, while its counts are properties
// of the code and compare raw across machines. Timing is judged by
// alternating parent/change runs of the benchmark of record (`make
// bench-pairs`). Each count a baseline row carries is gated: B/op and
// allocs/op against -threshold percent, and the custom metrics named
// in the -gate-metrics allowlist (b.ReportMetric units such as
// fsyncs/point or reads/segment) against -metric-threshold percent,
// wider because behavioural counts such as how many appends a group
// commit coalesces depend on timing. A baseline of zero fails on any
// current value at all — there is no ratio to threshold against zero.
// Other custom metrics print side by side, informationally.
//
// compare fails loudly rather than gate less than the baseline says:
// on a baseline benchmark missing from the current run (renamed?), on
// a gated count the current run does not report (a dropped
// b.ReportAllocs or b.ReportMetric), and on a baseline row that
// carries no gated count at all, which would otherwise gate nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark run's parsed results.
type Record struct {
	GoOS      string      `json:"goos"`
	GoArch    string      `json:"goarch"`
	GoVersion string      `json:"goversion"`
	CPUs      int         `json:"cpus"`
	CPUModel  string      `json:"cpu_model,omitempty"`
	Benches   []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "compare":
		err = compare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchjson record  -o out.json [-md out.md] [bench.txt]
  benchjson compare -baseline base.json -current cur.json [-threshold 15]
                    [-gate-metrics fsyncs/point] [-metric-threshold 30]`)
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "", "output JSON path (required)")
	md := fs.String("md", "", "optional markdown table path")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rec, err := parse(in)
	if err != nil {
		return err
	}
	if len(rec.Benches) == 0 {
		return fmt.Errorf("record: no benchmark result lines found")
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(markdown(rec)), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("benchjson: recorded %d benchmarks to %s (%s/%s, %d CPUs)\n",
		len(rec.Benches), *out, rec.GoOS, rec.GoArch, rec.CPUs)
	return nil
}

// maxprocsSuffix is the trailing -N Go appends to benchmark names.
var maxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark result lines from `go test -bench` output.
func parse(r io.Reader) (*Record, error) {
	rec := &Record{
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rec.CPUModel = cpu
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       maxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				b.NsPerOp = v
			} else {
				b.Metrics[fields[i+1]] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		if b.NsPerOp > 0 {
			rec.Benches = append(rec.Benches, b)
		}
	}
	return rec, sc.Err()
}

// metricNames returns a benchmark's metric names (everything but
// ns/op) in sorted order.
func metricNames(b Benchmark) []string {
	names := make([]string, 0, len(b.Metrics))
	for name := range b.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// markdown renders the record as the table BENCHMARKS.md embeds.
func markdown(rec *Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Benchmark record — %s/%s, %d CPUs, %s\n\n",
		rec.GoOS, rec.GoArch, rec.CPUs, rec.GoVersion)
	if rec.CPUModel != "" {
		fmt.Fprintf(&sb, "CPU: %s\n\n", rec.CPUModel)
	}
	sb.WriteString("| benchmark | ns/op | iterations | metrics |\n|---|---:|---:|---|\n")
	for _, b := range rec.Benches {
		var extras []string
		// The table lists the b.ReportMetric units (fsyncs/point,
		// q-p99-ms, …), not the allocation counters of every run.
		for _, m := range metricNames(b) {
			if m != "B/op" && m != "allocs/op" {
				extras = append(extras, fmt.Sprintf("%s=%.4g", m, b.Metrics[m]))
			}
		}
		fmt.Fprintf(&sb, "| %s | %.0f | %d | %s |\n",
			b.Name, b.NsPerOp, b.Iterations, strings.Join(extras, ", "))
	}
	return sb.String()
}

func load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &Record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func (r *Record) byName() map[string]Benchmark {
	out := make(map[string]Benchmark, len(r.Benches))
	for _, b := range r.Benches {
		out[b.Name] = b
	}
	return out
}

func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline JSON (required)")
	curPath := fs.String("current", "", "current JSON (required)")
	threshold := fs.Float64("threshold", 15, "max allowed B/op and allocs/op regression in percent")
	gateMetrics := fs.String("gate-metrics", "fsyncs/point",
		"comma-separated custom metrics gated against -metric-threshold instead of printed informationally; \"\" disables")
	metricThreshold := fs.Float64("metric-threshold", 30,
		"max allowed regression in percent for -gate-metrics metrics")
	fs.Parse(args)
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("compare: -baseline and -current are required")
	}
	base, err := load(*basePath)
	if err != nil {
		return err
	}
	cur, err := load(*curPath)
	if err != nil {
		return err
	}
	baseBy, curBy := base.byName(), cur.byName()
	limits := map[string]float64{"B/op": *threshold, "allocs/op": *threshold}
	for _, m := range strings.Split(*gateMetrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			limits[m] = *metricThreshold
		}
	}

	names := make([]string, 0, len(baseBy))
	for name := range baseBy {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		b := baseBy[name]
		c, ok := curBy[name]
		if !ok {
			fmt.Printf("FAIL %-50s missing from current run (renamed? update the baseline)\n", name)
			failed++
			continue
		}
		counts := 0
		for _, m := range metricNames(b) {
			limit, gated := limits[m]
			if !gated {
				if cv, ok := c.Metrics[m]; ok {
					fmt.Printf("     %-50s base %12.10g  cur %12.10g  (%s, informational)\n",
						name, b.Metrics[m], cv, m)
				}
				continue
			}
			counts++
			if !gate(name, m, b.Metrics[m], c, limit) {
				failed++
			}
		}
		if counts == 0 {
			fmt.Printf("FAIL %-50s gates no count (B/op, allocs/op or -gate-metrics)\n", name)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d count(s) regressed past their threshold, went missing or gate nothing", failed)
	}
	fmt.Printf("all %d baseline benchmarks hold their counts\n", len(names))
	return nil
}

// gate compares one count of a baseline row with the current run,
// prints the verdict and reports whether the count held: the current
// run reports it, at most limit percent above the baseline (so a zero
// baseline fails on any current value).
func gate(name, m string, bv float64, c Benchmark, limit float64) bool {
	cv, ok := c.Metrics[m]
	if !ok {
		fmt.Printf("FAIL %-50s %s in baseline but missing from current run\n", name, m)
		return false
	}
	delta := 0.0
	if bv > 0 {
		delta = (cv/bv - 1) * 100
	} else if cv > 0 {
		delta = math.Inf(1)
	}
	held := cv <= bv*(1+limit/100)
	status := "ok  "
	if !held {
		status = "FAIL"
	}
	fmt.Printf("%s %-50s base %12.10g  cur %12.10g  %+7.1f%%  (%s, gated at %.0f%%)\n",
		status, name, bv, cv, delta, m, limit)
	return held
}
