package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// verdict compares one end-to-end metric of one workload across two
// artifacts.
type verdict struct {
	Workload, Metric, Unit string
	Base, New              [3]float64 // q1, median, q3 of the values judged
	// Change is how much worse the new median is than the base median, as a
	// share of the base (negative: better).
	Change float64
	// Spread is the larger side's interquartile range over its median.
	Spread float64
	Bound  float64
	Status string // ok, regressed or unresolved
}

// moverMetrics are the per-call host times measured directly at a layer
// boundary, the candidates compare ranks. The CPU loop's self time is left
// out: it is the residual of the others, so their estimation error lands
// in it.
var moverMetrics = []string{
	"trace.next_ns", "cache.l1_hit_ns", "cache.l2_hit_ns", "core.miss_ns",
	"aescipher.block_ns", "gf128.ghash_kb_ns", "gcmmode.encrypt_block_ns", "gcmmode.mac64_ns",
}

// mover is a per-layer metric's relative change.
type mover struct {
	Workload, Metric string
	Base, New        float64
	Change           float64 // (new - base) / base
}

// side is one side of a comparison: the artifacts of one or more runs of
// the same code.
type side []artifact

// values are what a side is judged on for one end-to-end metric: each
// run's median when both sides hold several runs, so the spread is the
// run-to-run spread; otherwise the runs' samples. For most metrics the
// samples' spread is a fair stand-in, but set-up samples spread 40-60%
// within a run while run medians agree within 10-25%, so setup_s needs
// several runs a side to resolve.
func (s side) values(workload, metric string, runMedians bool) []float64 {
	var v []float64
	for _, a := range s {
		r, ok := findReport(a, workload)
		switch {
		case !ok:
		case runMedians:
			v = append(v, r.EndToEnd[metric].Value)
		default:
			v = append(v, r.Samples[metric]...)
		}
	}
	return v
}

// layer is the median over the side's runs of one per-layer metric.
func (s side) layer(workload, metric string) float64 {
	var v []float64
	for _, a := range s {
		if r, ok := findReport(a, workload); ok {
			v = append(v, r.PerLayer[metric].Value)
		}
	}
	return median(sorted(v))
}

// compare applies the benchmark's rule to every workload both sides ran: a
// metric is regressed when its median worsened by more than the bound,
// unresolved when either side's spread exceeds the bound, and ok
// otherwise. Where the spread is wide, values that do not overlap still
// decide: every new value worse means regressed, every one better ok.
// Movers lists, per workload, moverMetrics ordered by the size of their
// relative change: the layer an end-to-end move comes from.
func compare(base, next side) ([]verdict, []mover) {
	runMedians := len(base) > 1 && len(next) > 1
	var vs []verdict
	var ms []mover
	for _, b := range base[0].Workloads {
		w := b.Workload
		if _, ok := findReport(next[0], w); !ok {
			continue
		}
		for _, d := range endToEnd {
			vs = append(vs, judge(w, d, base.values(w, d.Name, runMedians), next.values(w, d.Name, runMedians)))
		}
		var wm []mover
		for _, name := range moverMetrics {
			bv, nv := base.layer(w, name), next.layer(w, name)
			if !(bv > 0) {
				continue
			}
			wm = append(wm, mover{w, name, bv, nv, (nv - bv) / bv})
		}
		sort.SliceStable(wm, func(i, j int) bool { return math.Abs(wm[i].Change) > math.Abs(wm[j].Change) })
		ms = append(ms, wm...)
	}
	return vs, ms
}

func findReport(a artifact, name string) (report, bool) {
	for _, r := range a.Workloads {
		if r.Workload == name {
			return r, true
		}
	}
	return report{}, false
}

func judge(workload string, d metricDef, base, next []float64) verdict {
	v := verdict{Workload: workload, Metric: d.Name, Unit: d.Unit, Bound: d.Bound}
	bs, ns := sorted(base), sorted(next)
	v.Base[0], v.Base[1], v.Base[2] = quartiles(bs)
	v.New[0], v.New[1], v.New[2] = quartiles(ns)
	v.Spread = math.Max((v.Base[2]-v.Base[0])/v.Base[1], (v.New[2]-v.New[0])/v.New[1])
	v.Change = (v.New[1] - v.Base[1]) / v.Base[1]
	if d.Better == "higher" {
		v.Change = -v.Change
	}
	// Samples that do not overlap settle the direction even when the
	// spread is wide.
	allBetter, allWorse := false, false
	if len(bs) > 0 && len(ns) > 0 {
		above, below := ns[0] > bs[len(bs)-1], ns[len(ns)-1] < bs[0]
		allBetter, allWorse = above, below
		if d.Better == "lower" {
			allBetter, allWorse = below, above
		}
	}
	switch {
	case math.IsNaN(v.Spread) || math.IsNaN(v.Change):
		v.Status = "unresolved"
	case v.Change > v.Bound && (v.Spread <= v.Bound || allWorse):
		v.Status = "regressed"
	case v.Spread > v.Bound && !allBetter:
		v.Status = "unresolved"
	default:
		v.Status = "ok"
	}
	return v
}

// readSide reads a comma-separated list of artifact files.
func readSide(paths string) (side, error) {
	var s side
	for _, p := range strings.Split(paths, ",") {
		a, err := readJSON[artifact](p)
		if err != nil {
			return nil, err
		}
		if len(a.Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads", p)
		}
		s = append(s, a)
	}
	return s, nil
}

// runCompare prints the comparison of two sides, each a comma-separated
// list of artifacts; it exits 1 when any metric regressed.
func runCompare(basePaths, newPaths string, stdout, stderr io.Writer) int {
	base, err := readSide(basePaths)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	next, err := readSide(newPaths)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bh := base[0].Host
	for _, a := range append(base[1:], next...) {
		if h := a.Host; h.Nproc != bh.Nproc || h.GOMAXPROCS != bh.GOMAXPROCS || h.GoVersion != bh.GoVersion {
			fmt.Fprintf(stdout, "warning: hosts differ: %+v and %+v\n", bh, h)
		}
	}
	judged := "the runs' samples"
	if len(base) > 1 && len(next) > 1 {
		judged = "run medians"
	}
	fmt.Fprintf(stdout, "%d base and %d new run(s), judged on %s\n", len(base), len(next), judged)
	vs, ms := compare(base, next)
	printCompare(stdout, vs, ms)
	for _, v := range vs {
		if v.Status == "regressed" {
			return 1
		}
	}
	return 0
}

func printCompare(w io.Writer, vs []verdict, ms []mover) {
	fmt.Fprintf(w, "%-10s %-17s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "worse by", "bound", "status")
	for _, v := range vs {
		fmt.Fprintf(w, "%-10s %-17s %-34s %-34s %7.1f%% %5.0f%%  %s\n", v.Workload, v.Metric,
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.Base[1], v.Base[0], v.Base[2], v.Unit),
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.New[1], v.New[0], v.New[2], v.Unit),
			100*v.Change, 100*v.Bound, v.Status)
	}
	fmt.Fprintln(w, "largest per-layer movers (per-call host time):")
	shown := map[string]int{}
	for _, m := range ms {
		if shown[m.Workload] == 3 {
			continue
		}
		shown[m.Workload]++
		fmt.Fprintf(w, "  %-10s %-26s %10.4g -> %-10.4g ns  %+7.1f%%\n", m.Workload, m.Metric, m.Base, m.New, 100*m.Change)
	}
}
