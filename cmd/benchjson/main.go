// Command benchjson turns `go test -bench` output into a stable JSON
// record and compares two such records as a regression gate — the
// machinery behind `make bench-record` (the CI benchmark artifact) and
// `make bench-compare` (fail the build on a hot-path regression).
//
//	benchjson record  -o BENCH_results.json [-md BENCH_results.md] [bench.txt]
//	benchjson compare -baseline bench/baseline.json -current BENCH_gate.json \
//	                  [-threshold 15] [-calibration BenchmarkCalibration]
//
// record parses benchmark result lines (name, iterations, then
// value/unit pairs such as "185.3 ns/op" or "24 B/op") from a file or
// stdin, strips the -GOMAXPROCS suffix from names so records taken on
// machines with different core counts stay comparable, and writes one
// JSON document plus an optional markdown table.
//
// compare fails (exit 1) when a benchmark's ns/op regressed more than
// threshold percent against the baseline. When both records contain
// the calibration benchmark — a fixed CPU-bound workload
// (BenchmarkCalibration) — each ratio is first normalized by the
// calibration ratio, cancelling out raw machine-speed differences, so
// a baseline recorded on one machine gates runs on another. Benchmarks
// that are faster than baseline never fail, and a benchmark present in
// the baseline but missing from the current run fails loudly — a
// renamed benchmark must not silently weaken the gate. A baseline entry
// whose ns_per_op is 0 opts its benchmark out of the time gate: it is
// gated on its allocation and allowlisted metrics alone, for
// benchmarks kept for a count rather than a speed.
//
// B/op and allocs/op are gated with the same threshold but WITHOUT
// calibration scaling: allocation counts and bytes are properties of
// the code, not of machine speed, so they compare raw across
// machines. A benchmark whose baseline carries an allocation metric
// must report it in the current run too (a dropped b.ReportAllocs
// must not silently weaken the gate), and a baseline of zero allocs
// fails on any current allocation at all — there is no ratio to
// threshold against zero.
//
// Custom metrics reported via b.ReportMetric (anything that is not
// ns/op, B/op or allocs/op — e.g. fsyncs/point from the WAL
// group-commit benchmark or reads/segment from the file-store scan)
// are printed side by side when both records carry them.
// By default they are informational, but metrics named in the
// -gate-metrics allowlist (default "fsyncs/point") are gated like
// allocations: compared raw — they are workload properties, not
// machine speeds, so the calibration normalization does not apply —
// against their own -metric-threshold. The separate threshold exists
// because behavioural metrics such as fsyncs/point depend on timing
// (how many appends a group commit coalesces) and need more headroom
// than ns/op. A gated metric present in the baseline but missing from
// the current run fails loudly, and a baseline of zero fails on any
// current value at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
  benchjson compare -baseline base.json -current cur.json [-threshold 15] [-calibration BenchmarkCalibration]
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

// customMetrics returns a benchmark's non-standard metric names in
// sorted order: the b.ReportMetric units (fsyncs/point, q-p99-ms, …),
// excluding the allocation counters every -benchmem run carries.
func customMetrics(b Benchmark) []string {
	var names []string
	for name := range b.Metrics {
		if name == "B/op" || name == "allocs/op" {
			continue
		}
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
		for _, m := range customMetrics(b) {
			extras = append(extras, fmt.Sprintf("%s=%.4g", m, b.Metrics[m]))
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
	threshold := fs.Float64("threshold", 15, "max allowed per-op regression in percent")
	calibration := fs.String("calibration", "BenchmarkCalibration", "calibration benchmark used to normalize machine speed; \"\" disables")
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
	gated := map[string]bool{}
	for _, m := range strings.Split(*gateMetrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			gated[m] = true
		}
	}

	// Machine-speed normalization: scale is how much slower the current
	// machine runs the fixed calibration workload than the baseline
	// machine did; every per-benchmark ratio is divided by it.
	scale := 1.0
	if *calibration != "" {
		cb, okB := baseBy[*calibration]
		cc, okC := curBy[*calibration]
		if okB && okC && cb.NsPerOp > 0 {
			scale = cc.NsPerOp / cb.NsPerOp
			fmt.Printf("calibration: baseline %.0f ns/op, current %.0f ns/op, machine scale %.3f\n",
				cb.NsPerOp, cc.NsPerOp, scale)
		} else {
			missing := *basePath
			if okB {
				missing = *curPath
			}
			fmt.Printf("calibration %q missing from %s; comparing raw ns/op\n", *calibration, missing)
		}
	}

	names := make([]string, 0, len(baseBy))
	for name := range baseBy {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		if name == *calibration {
			continue
		}
		b := baseBy[name]
		c, ok := curBy[name]
		if !ok {
			fmt.Printf("FAIL %-50s missing from current run (renamed? update the baseline)\n", name)
			failed++
			continue
		}
		if b.NsPerOp > 0 {
			ratio := c.NsPerOp / b.NsPerOp / scale
			delta := (ratio - 1) * 100
			status := "ok  "
			if delta > *threshold {
				status = "FAIL"
				failed++
			}
			fmt.Printf("%s %-50s base %12.1f  cur %12.1f  normalized %+6.1f%%\n",
				status, name, b.NsPerOp, c.NsPerOp, delta)
		}
		// Allocation gates: raw comparison, no machine-speed scaling.
		for _, m := range []string{"B/op", "allocs/op"} {
			bv, ok := b.Metrics[m]
			if !ok {
				continue
			}
			cv, ok := c.Metrics[m]
			if !ok {
				fmt.Printf("FAIL %-50s %s in baseline but missing from current run\n", "  "+name, m)
				failed++
				continue
			}
			var mDelta float64
			mStatus := "ok  "
			switch {
			case bv == 0 && cv > 0:
				mStatus = "FAIL"
				failed++
				mDelta = 100
			case bv == 0:
				mDelta = 0
			default:
				mDelta = (cv/bv - 1) * 100
				if mDelta > *threshold {
					mStatus = "FAIL"
					failed++
				}
			}
			fmt.Printf("%s %-50s base %12.0f  cur %12.0f  raw        %+6.1f%%  (%s)\n",
				mStatus, "  "+name, bv, cv, mDelta, m)
		}
		// Custom metrics: allowlisted ones gate raw (no calibration — they
		// are workload properties) against their own threshold; the rest
		// print informationally when both records carry them.
		for _, m := range customMetrics(b) {
			bv := b.Metrics[m]
			cv, ok := c.Metrics[m]
			if !gated[m] {
				if ok {
					fmt.Printf("     %-50s base %12.4g  cur %12.4g  (%s, informational)\n",
						"  "+m, bv, cv, m)
				}
				continue
			}
			if !ok {
				fmt.Printf("FAIL %-50s %s in baseline but missing from current run\n", "  "+name, m)
				failed++
				continue
			}
			var mDelta float64
			mStatus := "ok  "
			switch {
			case bv == 0 && cv > 0:
				mStatus = "FAIL"
				failed++
				mDelta = 100
			case bv == 0:
				mDelta = 0
			default:
				mDelta = (cv/bv - 1) * 100
				if mDelta > *metricThreshold {
					mStatus = "FAIL"
					failed++
				}
			}
			fmt.Printf("%s %-50s base %12.4g  cur %12.4g  raw        %+6.1f%%  (%s, gated at %.0f%%)\n",
				mStatus, "  "+name, bv, cv, mDelta, m, *metricThreshold)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% (or went missing)", failed, *threshold)
	}
	fmt.Printf("all %d gated benchmarks within %.0f%% of baseline\n", len(names), *threshold)
	return nil
}
