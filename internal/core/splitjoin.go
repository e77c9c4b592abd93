package core

import "modelardb/internal/models"

// compatible reports whether two values admit a common approximation
// under the bound, i.e. their permitted intervals intersect. For an
// absolute bound this is |v1-v2| <= 2e — the "double error bound" used
// by Algorithms 3 and 4 (§4.2): two data points cannot be approximated
// together if they are further apart.
func compatible(v1, v2 float32, bound models.ErrorBound) bool {
	lo1, hi1 := bound.Interval(float64(v1))
	lo2, hi2 := bound.Interval(float64(v2))
	return lo1 <= hi2 && lo2 <= hi1
}

// splitClusters is Algorithm 3's partitioning step: it groups the
// active series positions of a generator's buffer so every position in
// a cluster is pairwise compatible with the cluster's seed over all
// buffered ticks. buf holds the ticks row after row, width values each.
func splitClusters(buf []float32, width int, bound models.ErrorBound) [][]int {
	assigned := make([]bool, width)
	var clusters [][]int
	for seed := 0; seed < width; seed++ {
		if assigned[seed] {
			continue
		}
		cluster := []int{seed}
		assigned[seed] = true
		for p := seed + 1; p < width; p++ {
			if assigned[p] {
				continue
			}
			ok := true
			for row := 0; row < len(buf); row += width {
				if !compatible(buf[row+seed], buf[row+p], bound) {
					ok = false
					break
				}
			}
			if ok {
				cluster = append(cluster, p)
				assigned[p] = true
			}
		}
		clusters = append(clusters, cluster)
	}
	return clusters
}

// reverseCompatible is Algorithm 4's join test: it compares the last
// min(len(a), len(b)) buffered values of two groups' representative
// series, most recent first, and reports whether all pairs are within
// the double error bound. It returns false when either buffer is
// empty (Line 16: shortest > 0).
func reverseCompatible(a, b []float32, bound models.ErrorBound) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return false
	}
	for k := 1; k <= n; k++ {
		if !compatible(a[len(a)-k], b[len(b)-k], bound) {
			return false
		}
	}
	return true
}

// column extracts one position's buffered values from a generator's
// buffer of rows width values wide.
func column(buf []float32, width, pos int) []float32 {
	out := make([]float32, len(buf)/width)
	for i := range out {
		out[i] = buf[i*width+pos]
	}
	return out
}
