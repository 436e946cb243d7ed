package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/harness"
	"secmem/internal/sim"
	"secmem/internal/stats"
)

// smokeOpts runs a workload at 1/100 of its budget, one timed rep, traced.
func smokeOpts(w workload) runOpts {
	return runOpts{
		seed:    1,
		minReps: 1,
		traced:  true,
		budget:  w.budget / 100,
		setupN:  3,
		kernelD: 2 * time.Millisecond,
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code measures %d", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, code %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\nfile %+v\ncode %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer:\nfile %+v\ncode %+v", f.PerLayer, perLayer)
	}
}

// TestCampaignConfigsMatchFigures: the machines set-up builds and the traced
// pass runs are the baseline plus one per scheme of Figures 4, 7 and 9, and
// figureRuns counts one run per scheme and bench.
func TestCampaignConfigsMatchFigures(t *testing.T) {
	benches := []string{"swim", "mcf"}
	h := harness.New(harness.Options{Instructions: 1000, Seed: 1, Benches: benches})
	schemes, runs := 1, 0
	for _, fig := range []func() (stats.Table, harness.FigData){h.Fig4, h.Fig7, h.Fig9} {
		_, data := fig()
		schemes += len(data)
		runs += figureRuns(data)
	}
	if n := len(campaignConfigs()); schemes != n {
		t.Errorf("figures build %d machines, campaignConfigs lists %d", schemes, n)
	}
	if want := (schemes - 1) * len(benches); runs != want {
		t.Errorf("figureRuns counted %d runs, want %d", runs, want)
	}
}

// TestSmokeEveryWorkload runs every workload small and checks that each
// metric BENCHMARK.json names is emitted, finite and with its unit, in the
// one-line result the benchmark ends with.
func TestSmokeEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		rep, err := run(w, smokeOpts(w))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || rep.Attempted < 2 {
			t.Errorf("%s: attempted=%d failed=%d %v", w.name, rep.Attempted, rep.Failed, rep.Failures)
		}
		if rep.Reference != "none (determinism-only)" {
			t.Errorf("%s: 1/100 budget should be unpinned, got reference %q", w.name, rep.Reference)
		}
		for _, traced := range []bool{false, true} {
			defs := f.EndToEnd
			if traced {
				defs = f.PerLayer
			}
			rep.Traced = traced
			var out bytes.Buffer
			if code := printResult(&out, rep); code != 0 {
				t.Fatalf("%s: printResult exited %d", w.name, code)
			}
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(out.String()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, out.String(), err)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
				t.Errorf("%s: result %s", w.name, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s: metric %s missing", w.name, d.Name)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.Name, *m.Value)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestTimingWrappersAreNeutral: the sampled timers must not change a single
// simulated statistic.
func TestTimingWrappersAreNeutral(t *testing.T) {
	for _, w := range workloads {
		if w.profile == "" {
			continue
		}
		r, err := newRunner(w, smokeOpts(w))
		if err != nil {
			t.Fatal(err)
		}
		var lt layerTimes
		var sc simCounts
		bare := r.simulate(w.config(), w.profile, nil, nil)
		timed := r.simulate(w.config(), w.profile, &lt, &sc)
		if bare.err != nil || timed.err != nil {
			t.Fatalf("%s: %v / %v", w.name, bare.err, timed.err)
		}
		if bare.fp != timed.fp {
			t.Errorf("%s: timed fingerprint %s differs from bare %s", w.name, timed.fp, bare.fp)
		}
		if lt.Trace.Samples == 0 || lt.Mem[l1Hit].Samples+lt.Mem[l2Hit].Samples+lt.Mem[l2Miss].Samples == 0 {
			t.Errorf("%s: timers took no samples: %+v", w.name, lt)
		}
	}
}

// TestFunctionalHonestOnPastFalseTamperSeeds: at these seeds, swim in
// functional mode with Merkle nodes in the shared L2 reports a tamper
// within 1M instructions (a counter rolled back by a counter-block unpack
// after a nested write-back). The functional workload's machine must run
// them clean.
func TestFunctionalHonestOnPastFalseTamperSeeds(t *testing.T) {
	w, _ := findWorkload("functional")
	for _, seed := range []int64{103694313, 815158698} {
		r, err := newRunner(w, runOpts{seed: seed, budget: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if out := r.simulate(w.config(), w.profile, nil, nil); out.err != nil {
			t.Errorf("seed %d: %v", seed, out.err)
		}
	}
}

// lateData delivers every access one cycle late.
type lateData struct{ mem cpu.Memory }

func (l lateData) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	r := l.mem.Access(now, addr, write)
	r.DataReady++
	return r
}

// TestOneCycleShiftFailsEveryRep: a wrapper that delays data by one cycle
// changes the simulated statistics, so every rep must fail the reference
// check (fail_frac = 1).
func TestOneCycleShiftFailsEveryRep(t *testing.T) {
	w, _ := findWorkload("chase")
	o := smokeOpts(w)
	r, err := newRunner(w, o)
	if err != nil {
		t.Fatal(err)
	}
	o.ref = r.simulate(w.config(), w.profile, nil, nil).fp
	o.warmup, o.minReps = 1, 2
	o.wrap = func(m cpu.Memory) cpu.Memory { return lateData{m} }
	rep, err := run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Errorf("failed %d of %d reps, want all: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
}
