package obsv

import (
	"bytes"
	"testing"
)

// The tests below call the registries Merge folds "shards": a parallel
// campaign gives each run its own registry and merges them after the join.

func TestShardedMergeSemantics(t *testing.T) {
	regs := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	// Counters sum; names present in only some registries still merge.
	regs[0].Counter("ctl.fill").Add(10)
	regs[1].Counter("ctl.fill").Add(32)
	regs[2].Counter("only.here").Add(1)
	// Gauges take the max across registries that set them.
	regs[0].SetGauge("bus.util", 0.25)
	regs[2].SetGauge("bus.util", 0.75)
	regs[1].SetGauge("solo", -2)
	// Histograms merge bucket-wise with min/max combined.
	regs[0].Histogram("lat").Observe(4)
	regs[0].Histogram("lat").Observe(100)
	regs[2].Histogram("lat").Observe(1)

	m := Merge(regs)
	if got := m.Counter("ctl.fill").v; got != 42 {
		t.Errorf("merged ctl.fill = %d, want 42", got)
	}
	if got := m.Counter("only.here").v; got != 1 {
		t.Errorf("merged only.here = %d, want 1", got)
	}
	if got := m.Gauge("bus.util").v; got != 0.75 {
		t.Errorf("merged bus.util = %g, want 0.75 (max)", got)
	}
	if got := m.Gauge("solo").v; got != -2 {
		t.Errorf("merged solo = %g, want -2", got)
	}
	h := m.Snapshot().Histograms["lat"]
	if h.Count != 3 || h.Sum != 105 || h.Min != 1 || h.Max != 100 {
		t.Errorf("merged lat = count %d sum %d min %d max %d, want 3/105/1/100",
			h.Count, h.Sum, h.Min, h.Max)
	}
	var total uint64
	for _, b := range h.Buckets {
		total += b.N
	}
	if total != 3 {
		t.Errorf("merged lat buckets hold %d observations, want 3", total)
	}
}

func TestShardedMergeDeterministic(t *testing.T) {
	build := func(order []int) string {
		regs := make([]*Registry, len(order))
		for k, i := range order {
			regs[k] = NewRegistry()
			regs[k].Counter("c.a").Add(uint64(i + 1))
			regs[k].SetGauge("g.x", float64(i))
			regs[k].Histogram("h.l").Observe(uint64(1 << i))
		}
		var buf bytes.Buffer
		if err := Merge(regs).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if a != b {
		t.Error("merge output depends on shard order")
	}
}

func TestShardedEmptyShardsIgnored(t *testing.T) {
	regs := []*Registry{NewRegistry(), NewRegistry(), nil}
	regs[0].Histogram("lat").Observe(7)
	// Shard 1 registers the histogram but never observes: its zero min must
	// not clobber the merged min.
	regs[1].Histogram("lat")
	regs[1].Counter("idle")
	snap := Merge(regs).Snapshot()
	h := snap.Histograms["lat"]
	if h.Min != 7 || h.Max != 7 || h.Count != 1 {
		t.Errorf("empty shard polluted merge: min %d max %d count %d", h.Min, h.Max, h.Count)
	}
	if v, ok := snap.Counters["idle"]; !ok || v != 0 {
		t.Errorf("registered-but-idle counter lost in merge: %d, %v", v, ok)
	}
	if m := Merge(nil); m == nil || len(m.counters) != 0 {
		t.Error("merge of no shards not empty")
	}
}

// TestShardCounterIncDoesNotAllocate pins the registry's handles as
// allocation-free: Histogram.Observe runs on every simulated access of an
// instrumented run, and counters are added once per run.
func TestShardCounterIncDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.path")
	h := r.Histogram("hot.lat")
	avg := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Add(3)
		h.Observe(17)
	})
	if avg != 0 {
		t.Errorf("hot-path metrics allocate %.1f times per op, want 0", avg)
	}
}
