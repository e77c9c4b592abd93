// Command benchmark is the repository's benchmark of record: five
// workloads, five end-to-end metrics and a ledger of per-layer metrics
// measured from outside the layers. BENCHMARK.json at the repository
// root names it; README.md in this directory explains every number.
//
//	bash benchmark/run.sh --workload agg_segment --seed 42 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload all --out a.jsonl
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 42, "seed of every generated input; the only input knob")
	seconds := fs.Float64("seconds", runSeconds, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, no spans; 1: the traced run with the per-layer metrics")
	out := fs.String("out", "", "append each run's full report to this file, one JSON object per line (input of --compare)")
	compare := fs.Bool("compare", false, "compare two --out files given as arguments: a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two files: base.jsonl new.jsonl")
			return 2
		}
		code, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return code
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out file]")
		return 2
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloadDefs
	} else if def, ok := findWorkload(*workload); ok {
		defs = []workloadDef{def}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	// All state lives under .bench_build/tmp of the working directory
	// (the checkout root when started through run.sh) and is removed.
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	e := &env{
		sc: fullScale, seed: *seed, tmp: tmp, log: stdout,
		window: time.Duration(*seconds * float64(time.Second)),
		pins:   *seconds == runSeconds,
	}
	code := 0
	for _, def := range defs {
		fmt.Fprintf(stdout, "== %s (trace %d)\n", def.name, *trace)
		var r *report
		var err error
		if *trace == 1 {
			r, err = e.runTraced(context.Background(), def, filepath.Join("benchmark", "out", "trace.json"))
		} else {
			r, err = e.run(context.Background(), def)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if *out != "" {
			if err := appendReport(*out, r); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		r.print(stdout)
		if !r.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

// newReport starts a run's report with its provenance.
func newReport(e *env, def workloadDef, traced bool) *report {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &report{
		Workload: def.name,
		Trace:    traced,
		Meta: map[string]any{
			"commit":     commit,
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"seed":       e.seed,
			"run_s":      e.window.Seconds(),
		},
		Metrics: map[string]metricValue{},
	}
}

// print writes the human-readable lines and, last, the one-line JSON
// result the driver reads.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "  commit=%v go=%v nproc=%v GOMAXPROCS=%v seed=%v run_s=%v checksum=%s\n",
		r.Meta["commit"], r.Meta["go"], r.Meta["nproc"], r.Meta["gomaxprocs"], r.Meta["seed"], r.Meta["run_s"], r.Checksum)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendReport appends r to path as one JSON line.
func appendReport(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
