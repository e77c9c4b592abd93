package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports loads an --out file: one report per line.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &report{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects, per (workload, end-to-end metric), the values of the
// untraced runs in a report set.
func series(reports []*report) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range reports {
		if r.Trace {
			continue
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; ok {
				key := [2]string{r.Workload, d.Name}
				out[key] = append(out[key], m.Value)
			}
		}
	}
	return out
}

// verdict judges one (metric, workload) pair: unresolved when either
// side's own quartile spread is wider than the bound — the medians
// cannot be told apart at that resolution — regressed when the new
// median is worse than the base by more than the bound, else ok.
func verdict(d metricDef, base, next []float64) (string, float64) {
	b1, bm, b3 := quartiles(base)
	n1, nm, n3 := quartiles(next)
	ratio := nm / bm
	if (b3-b1)/bm > d.Bound || (n3-n1)/nm > d.Bound {
		return "unresolved", ratio
	}
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	if worse > d.Bound {
		return "regressed", ratio
	}
	return "ok", ratio
}

// compareFiles prints, per (metric, workload), both medians and
// quartiles, the ratio new/base and the bound, with a verdict. The exit
// code is 1 when any pair regressed.
func compareFiles(w io.Writer, basePath, nextPath string) (int, error) {
	baseReports, err := readReports(basePath)
	if err != nil {
		return 0, err
	}
	nextReports, err := readReports(nextPath)
	if err != nil {
		return 0, err
	}
	base, next := series(baseReports), series(nextReports)
	var keys [][2]string
	for k := range base {
		if _, ok := next[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("%s and %s share no untraced (workload, metric) pair", basePath, nextPath)
	}
	order := map[string]int{}
	for i, d := range workloadDefs {
		order[d.name] = i
	}
	for i, d := range endToEnd {
		order[d.Name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return order[keys[i][0]] < order[keys[j][0]]
		}
		return order[keys[i][1]] < order[keys[j][1]]
	})
	fmt.Fprintf(w, "%-14s %-20s %3s %36s   %3s %36s   %-22s %6s  %s\n",
		"workload", "metric", "n", "base median [q1, q3]", "n", "new median [q1, q3]", "new/base (base)", "bound", "verdict")
	code := 0
	for _, k := range keys {
		var d metricDef
		for _, m := range endToEnd {
			if m.Name == k[1] {
				d = m
			}
		}
		b1, bm, b3 := quartiles(base[k])
		n1, nm, n3 := quartiles(next[k])
		v, ratio := verdict(d, base[k], next[k])
		if v == "regressed" {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-20s %3d %36s   %3d %36s   %-22s %5.0f%%  %s\n",
			k[0], k[1],
			len(base[k]), fmt.Sprintf("%.6g [%.6g, %.6g]", bm, b1, b3),
			len(next[k]), fmt.Sprintf("%.6g [%.6g, %.6g]", nm, n1, n3),
			fmt.Sprintf("%.4f (%.6g %s)", ratio, bm, d.Unit), 100*d.Bound, v)
	}
	return code, nil
}
