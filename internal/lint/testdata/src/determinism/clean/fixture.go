// Package clean exercises the determinism analyzer's negatives: the
// collect-then-sort idiom, sorted-key iteration, commutative updates inside
// map ranges, and per-worker float contributions reduced in a fixed order
// after the join.
package clean

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

func parallelFor(n int, fn func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// render iterates sorted keys before emitting: deterministic output.
func render(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collect-then-sort: sorted below
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, m[k])
	}
	return b.String()
}

// tally performs commutative updates while ranging a map: the final counts
// are independent of iteration order.
func tally(m map[string]int) (int, map[string]bool) {
	total := 0
	seen := make(map[string]bool)
	for k, v := range m {
		total += v
		seen[k] = true
	}
	return total, seen
}

// sumParallel accumulates per worker and reduces in index order after the
// join, so the float sum is interleaving-independent.
func sumParallel(parts [][]float64) float64 {
	contrib := make([]float64, len(parts))
	parallelFor(len(parts), func(i int) {
		local := 0.0
		for _, v := range parts[i] {
			local += v // worker-private accumulator
		}
		contrib[i] = local
	})
	var total float64
	for i := range contrib {
		total += contrib[i]
	}
	return total
}
