// Package violating exercises the determinism analyzer's positive cases:
// ordered sinks and unsorted appends inside map ranges, and float
// accumulation across a concurrent merge point.
package violating

import (
	"fmt"
	"strings"
	"sync"
)

// parallelFor mimics the harness worker pool: fn runs on worker
// goroutines, so every literal bound to fn is a concurrent body.
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

// emitInMapOrder prints while ranging a map: output order changes per run.
func emitInMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside a map range emits in randomized iteration order"
	}
}

// recordInMapOrder streams and collects in iteration order; lines is never
// sorted before it is rendered.
func recordInMapOrder(m map[string]int, b *strings.Builder) []string {
	var lines []string
	for k := range m {
		b.WriteString(k)         // want "WriteString call inside a map range"
		lines = append(lines, k) // want "append to lines inside a map range .* never sorted afterwards"
	}
	return lines
}

var weight float64

// meanLatency merges float partial sums under a lock: the lock serializes
// but does not order, and float addition is not associative.
func meanLatency(xs []float64) float64 {
	var mu sync.Mutex
	total := 0.0
	parallelFor(len(xs), func(i int) {
		mu.Lock()
		total += xs[i]          // want "float accumulation into total inside a concurrent body"
		weight = weight + xs[i] // want "float accumulation into weight inside a concurrent body"
		mu.Unlock()
	})
	return total / float64(len(xs))
}
