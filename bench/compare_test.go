package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/sim"
)

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestJudgeStatuses(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25}
	wall := metricDef{"wall_s", "s", "lower", 0.10}
	rate := metricDef{"sim_minstr_per_s", "Minstr/s", "higher", 0.10}
	for _, tc := range []struct {
		name      string
		d         metricDef
		base, new []float64
		want      string
	}{
		{"same", wall, steady, steady, "ok"},
		{"slightly slower", wall, steady, scaled(steady, 1.05), "ok"},
		{"much slower", wall, steady, scaled(steady, 1.5), "regressed"},
		{"much faster", wall, steady, scaled(steady, 0.5), "ok"},
		{"rate dropped", rate, steady, scaled(steady, 0.8), "regressed"},
		{"rate rose", rate, steady, scaled(steady, 1.3), "ok"},
		{"noisy base", wall, noisy, steady, "unresolved"},
		{"noisy, slower, overlapping", wall, noisy, scaled(noisy, 1.2), "unresolved"},
		{"noisy but every sample better", wall, noisy, scaled(noisy, 0.2), "ok"},
		{"noisy but every sample worse", wall, noisy, scaled(noisy, 3), "regressed"},
	} {
		if got := judge("w", tc.d, tc.base, tc.new).Status; got != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(s); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 201)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v := summarize("s", xs); v.TailPct != 95 || v.Tail != 190 || v.Value != 100 {
		t.Errorf("201 samples: p%d = %v, median %v; want p95 = 190 (10 beyond), median 100", v.TailPct, v.Tail, v.Value)
	}
	if v := summarize("s", xs[:20]); v.TailPct != 0 {
		t.Errorf("20 samples: p%d reported, want none", v.TailPct)
	}
}

func TestCompareRanksMovers(t *testing.T) {
	layer := func(vals map[string]float64) map[string]metricValue {
		out := map[string]metricValue{}
		for _, d := range perLayer {
			out[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		for k, v := range vals {
			out[k] = metricValue{Value: v}
		}
		return out
	}
	steady := []float64{1, 1, 1}
	samples := map[string][]float64{"wall_s": steady, "sim_minstr_per_s": steady, "setup_s": steady, "max_rss_mb": steady}
	base := artifact{Workloads: []report{{Workload: "chase", Samples: samples, PerLayer: layer(nil)}}}
	next := artifact{Workloads: []report{{Workload: "chase", Samples: samples, PerLayer: layer(map[string]float64{
		"trace.next_ns":         95,
		"core.miss_ns":          250,
		"cache.l2_hit_ns":       120,
		"core.miss_share":       900, // not a per-call time: not ranked
		"cpu.self_ns_per_event": 900, // a residual of the others: not ranked
		"bench.clock_bias_ns":   900, // the benchmark's own figure: not ranked
	})}}}
	vs, ms := compare(side{base}, side{next})
	if len(vs) != len(endToEnd) {
		t.Fatalf("%d verdicts, want %d", len(vs), len(endToEnd))
	}
	var names []string
	for _, m := range ms[:3] {
		names = append(names, m.Metric)
	}
	if got := strings.Join(names, ","); got != "core.miss_ns,cache.l2_hit_ns,trace.next_ns" {
		t.Errorf("movers %s", got)
	}
	var out bytes.Buffer
	printCompare(&out, vs, ms)
	if !strings.Contains(out.String(), "core.miss_ns") {
		t.Errorf("compare output does not name the top mover:\n%s", out.String())
	}
}

// TestCompareJudgesRunMedians: set-up samples spread widely within a run
// while run medians agree, so one run a side is unresolved and several
// runs a side resolve.
func TestCompareJudgesRunMedians(t *testing.T) {
	oneRun := func(med float64) artifact {
		var wide []float64
		for _, k := range []float64{0.5, 0.7, 0.9, 1, 1, 1.1, 1.3, 1.5} {
			wide = append(wide, med*k)
		}
		ev := map[string]metricValue{}
		samples := map[string][]float64{}
		for _, d := range endToEnd {
			ev[d.Name] = metricValue{Value: med}
			samples[d.Name] = wide
		}
		return artifact{Workloads: []report{{Workload: "resident", Samples: samples, EndToEnd: ev}}}
	}
	status := func(base, next side) string {
		vs, _ := compare(base, next)
		return vs[0].Status
	}
	if got := status(side{oneRun(1)}, side{oneRun(1.02)}); got != "unresolved" {
		t.Errorf("one run a side: %s, want unresolved", got)
	}
	many := func(meds ...float64) side {
		var s side
		for _, m := range meds {
			s = append(s, oneRun(m))
		}
		return s
	}
	if got := status(many(1, 1.02, 0.99, 1.01), many(1.03, 1, 1.02, 0.98)); got != "ok" {
		t.Errorf("steady run medians: %s, want ok", got)
	}
	if got := status(many(1, 1.02, 0.99, 1.01), many(1.5, 1.52, 1.49, 1.48)); got != "regressed" {
		t.Errorf("run medians 50%% slower: %s, want regressed", got)
	}
}

// slowMisses busy-waits d on every L2-miss access, a regression confined to
// the controller below the L2.
type slowMisses struct {
	mem cpu.Memory
	d   time.Duration
}

func (s slowMisses) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	r := s.mem.Access(now, addr, write)
	if r.L2Miss {
		for t0 := time.Now(); time.Since(t0) < s.d; {
		}
	}
	return r
}

// TestInjectedMissSlowdownIsAttributed slows the miss path by 2 us per miss
// and checks the compare names it: chase regresses with core.miss_ns the
// top mover, while resident, whose misses are rare, stays inside its bound.
// The two sides run in alternating rounds, so host drift lands on both and
// is judged on round medians. It still asserts on host time, which a shared
// host can swing by more than a bound, so it is opt-in via
// SECMEM_BENCH_TIMING=1, and it does not hold under the race detector.
func TestInjectedMissSlowdownIsAttributed(t *testing.T) {
	if os.Getenv("SECMEM_BENCH_TIMING") == "" {
		t.Skip("set SECMEM_BENCH_TIMING=1 to run the host-time attribution test")
	}
	measure := func(name string, budget uint64, traced bool, wrap func(cpu.Memory) cpu.Memory) report {
		w, _ := findWorkload(name)
		o := runOpts{seed: 1, minReps: 3, traced: traced, budget: budget, setupN: 3, kernelD: time.Millisecond, wrap: wrap}
		rep, err := run(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %v", name, rep.Failures)
		}
		return *rep
	}
	slow := func(m cpu.Memory) cpu.Memory { return slowMisses{m, 2 * time.Microsecond} }
	var base, next side
	for i := 0; i < 3; i++ {
		for _, wrap := range []func(cpu.Memory) cpu.Memory{nil, slow} {
			a := artifact{Workloads: []report{measure("chase", 200_000, true, wrap), measure("resident", 6_000_000, false, wrap)}}
			if wrap == nil {
				base = append(base, a)
			} else {
				next = append(next, a)
			}
		}
	}
	vs, ms := compare(base, next)
	for _, v := range vs {
		switch {
		case v.Workload == "chase" && v.Metric == "wall_s" && v.Status != "regressed":
			t.Errorf("chase wall_s %s (worse by %.1f%%), want regressed", v.Status, 100*v.Change)
		case v.Workload == "resident" && v.Metric == "wall_s" && v.Status == "regressed":
			t.Errorf("resident wall_s regressed by %.1f%%, want inside its bound", 100*v.Change)
		}
	}
	if len(ms) == 0 || ms[0].Workload != "chase" || ms[0].Metric != "core.miss_ns" {
		t.Errorf("top mover %+v, want chase core.miss_ns", ms)
	}
}
