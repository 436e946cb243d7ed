package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract; BENCHMARK.json at the repository root mirrors them
// and bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the user-visible metrics, measured on untraced reps only.
// Bound is the share of the baseline median by which a metric may worsen
// before a change counts as a regression. The time bounds are the largest
// allowed because the reference host, a 2-vCPU VM on a shared machine,
// slows by 20-50% for seconds to minutes at a time, in CPU time as well as
// wall time: across ten runs of one workload the interquartile range of
// the run medians was 8-18% of their median (README.md has the table). A
// tighter bound would flag the host, not the change.
//
// setup_s is tens of microseconds per construction; it exists to catch
// work moved into construction, which moves it by orders of magnitude.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.10},
}

// perLayer are measured on the traced reps (the runtime.* and harness.*
// rows on the timed reps, read between them). They carry no bound;
// -compare ranks the per-call times to name the layer behind an end-to-end
// move.
var perLayer = []metricDef{
	{"trace.next_ns", "ns", "lower", 0},
	{"trace.share", "fraction", "lower", 0},
	{"cpu.self_share", "fraction", "lower", 0},
	{"cpu.self_ns_per_event", "ns", "lower", 0},
	{"cpu.events_per_kinstr", "1/kinstr", "lower", 0},
	{"cpu.ipc", "instr/cycle", "higher", 0},
	{"cache.l1_hit_ns", "ns", "lower", 0},
	{"cache.l2_hit_ns", "ns", "lower", 0},
	{"cache.hit_share", "fraction", "lower", 0},
	{"cache.l1_hit_rate", "fraction", "higher", 0},
	{"cache.l2_hit_rate", "fraction", "higher", 0},
	{"core.miss_ns", "ns", "lower", 0},
	{"core.miss_share", "fraction", "lower", 0},
	{"core.misses_per_kinstr", "1/kinstr", "lower", 0},
	{"core.writebacks_per_kinstr", "1/kinstr", "lower", 0},
	{"core.merkle_fetches_per_fill", "count/fill", "lower", 0},
	{"core.timely_pad_rate", "fraction", "higher", 0},
	{"counterstore.hit_rate", "fraction", "higher", 0},
	{"counterstore.half_miss_rate", "fraction", "lower", 0},
	{"bus.busy_frac", "fraction", "lower", 0},
	{"bus.wait_cycles_per_fill", "cycles/fill", "lower", 0},
	{"aescipher.block_ns", "ns", "lower", 0},
	{"gf128.ghash_kb_ns", "ns", "lower", 0},
	{"gcmmode.encrypt_block_ns", "ns", "lower", 0},
	{"gcmmode.mac64_ns", "ns", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "fraction", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.cpu_util", "fraction", "higher", 0},
	{"harness.fig4_share", "fraction", "lower", 0},
	{"harness.fig7_share", "fraction", "lower", 0},
	{"harness.fig9_share", "fraction", "lower", 0},
	{"bench.trace_overhead", "fraction", "lower", 0},
	{"bench.clock_bias_ns", "ns", "lower", 0},
}

// metricValue is one reported metric: the median of its samples, with the
// spread beside it and, where at least ten samples lie beyond it, the
// highest tail percentile.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	N       int     `json:"n"`
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func summarize(unit string, xs []float64) metricValue {
	if len(xs) == 0 {
		return metricValue{Unit: unit}
	}
	s := sorted(xs)
	v := metricValue{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
	for _, p := range []int{99, 95, 90, 75} {
		if beyond := len(s) * (100 - p) / 100; beyond >= 10 {
			v.TailPct, v.Tail = p, s[len(s)-1-beyond]
			break
		}
	}
	return v
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of an ascending slice by the "exclusive" method of Python's
// statistics.quantiles(n=4), so a spread printed here matches the one
// Python computes from the same samples.
func quartiles(s []float64) (q1, q2, q3 float64) {
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
