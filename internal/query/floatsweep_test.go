//go:build floatsweep

package query

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestAppendFloatSweep checks appendFloat against strconv on every one
// of the 2^32 float32 patterns, widened to float64: the proof that the
// fast path writes strconv's bytes wherever it runs. About 6 minutes
// on 2 vCPUs; run it with `make float-sweep`.
func TestAppendFloatSweep(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	var (
		mu         sync.Mutex
		mismatches uint64
		wg         sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got, want []byte
			var bad uint64
			for u := uint64(w); u < 1<<32; u += uint64(workers) {
				v := float64(math.Float32frombits(uint32(u)))
				got = appendFloat(got[:0], v)
				want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
				if string(got) != string(want) {
					bad++
					if bad <= 5 {
						t.Errorf("float32 %#08x: appendFloat %q, strconv %q", u, got, want)
					}
				}
			}
			mu.Lock()
			mismatches += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	t.Logf("%d mismatches over all 2^32 float32 patterns", mismatches)
}
