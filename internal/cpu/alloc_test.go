package cpu_test

import (
	"testing"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/trace"
)

// TestRunLoopAllocationFree: once crafty's working set is resident, a
// serial run on the default machine allocates nothing per instruction —
// not in the trace generator, the CPU loop, or the L1/L2 hit path. Those
// are the whole host path of a cache-resident run. Benchmarks that keep
// touching new pages (mcf, swim) grow the counter tables and stay out.
func TestRunLoopAllocationFree(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cfg := config.Default()
		mem, err := core.NewMemSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(cfg, mem)
		gen := trace.NewGenerator(trace.Get("crafty"), seed)
		budget := uint64(2_000_000)
		c.Run(gen, budget)
		if n := testing.AllocsPerRun(2, func() {
			budget += 500_000
			c.Run(gen, budget)
		}); n != 0 {
			t.Errorf("seed %d: %.1f heap allocations per 500k instructions after warm-up, want 0", seed, n)
		}
	}
}
