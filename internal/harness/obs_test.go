package harness

import (
	"bytes"
	"reflect"
	"testing"

	"secmem/internal/config"
	"secmem/internal/obsv"
)

func obsOpts() Options {
	return Options{Instructions: 200_000, Seed: 1, Benches: []string{"swim", "mcf", "art"}}
}

// TestSamplerIsTimingNeutral pins the tentpole invariant: attaching a
// time-series sampler (with or without a trace recorder) must not change a
// single simulated number. The sampler only reads state at boundaries; if
// it ever perturbed the timing model, every trajectory figure would be
// unrepresentative of the uninstrumented run.
func TestSamplerIsTimingNeutral(t *testing.T) {
	r := New(obsOpts())
	cfg := config.Default()

	plain := r.Run("swim", cfg)

	smp := obsv.NewSampler(1000, 0)
	sampled := r.RunObserved("swim", cfg, Obs{
		Reg: obsv.NewRegistry(),
		Rec: obsv.NewRecorder(0),
		Smp: smp,
	})

	if !reflect.DeepEqual(plain, sampled) {
		t.Errorf("sampling changed simulated results:\nplain   %+v\nsampled %+v", plain, sampled)
	}
	if smp.Len() == 0 {
		t.Error("sampler recorded nothing over a 200k-instruction run")
	}
	for _, name := range []string{"bus.util", "dram.util", "ctl.fills", "ctrcache.hitrate", "rsr.occupancy"} {
		found := false
		for _, n := range smp.Names() {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("probe %s not registered (have %v)", name, smp.Names())
		}
	}
}

// TestSampledRunDumpsAreDeterministic runs the same sampled simulation
// twice and requires byte-identical time-series and trace artifacts.
func TestSampledRunDumpsAreDeterministic(t *testing.T) {
	render := func() (string, string) {
		r := New(obsOpts())
		smp := obsv.NewSampler(1000, 0)
		rec := obsv.NewRecorder(0)
		r.RunObserved("mcf", config.Default(), Obs{Reg: obsv.NewRegistry(), Rec: rec, Smp: smp})
		var ts, tr bytes.Buffer
		if err := smp.WriteJSON(&ts); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		return ts.String(), tr.String()
	}
	ts1, tr1 := render()
	ts2, tr2 := render()
	if ts1 != ts2 {
		t.Error("time-series dump differs between identical runs")
	}
	if tr1 != tr2 {
		t.Error("trace (with counter tracks) differs between identical runs")
	}
}

// TestCampaignObserved checks the parallel campaign: results match the
// sequential per-benchmark runs, and the merged registry equals the sum of
// what each benchmark contributes — independent of scheduling.
func TestCampaignObserved(t *testing.T) {
	cfg := config.Default()

	seq := New(obsOpts())
	var wantOuts []RunOut
	seqReg := obsv.NewRegistry()
	for _, b := range obsOpts().Benches {
		wantOuts = append(wantOuts, seq.RunObserved(b, cfg, Obs{Reg: seqReg}))
	}

	par := New(obsOpts())
	outs, merged := par.CampaignObserved(cfg, true)
	if len(outs) != len(wantOuts) {
		t.Fatalf("got %d outs, want %d", len(outs), len(wantOuts))
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i], wantOuts[i]) {
			t.Errorf("bench %s: parallel campaign result differs from sequential", outs[i].Bench)
		}
	}

	// Counters and histograms accumulate identically whether the benchmarks
	// share one registry sequentially or merge from one registry each.
	seqSnap, mergedSnap := seqReg.Snapshot(), merged.Snapshot()
	if !reflect.DeepEqual(seqSnap.Counters, mergedSnap.Counters) {
		t.Error("merged counters differ from sequential accumulation")
	}
	if len(mergedSnap.Histograms) != len(seqSnap.Histograms) {
		t.Fatalf("merged histogram set differs: %d vs %d", len(mergedSnap.Histograms), len(seqSnap.Histograms))
	}
	for name, sh := range seqSnap.Histograms {
		mh := mergedSnap.Histograms[name]
		if sh.Count != mh.Count || sh.Sum != mh.Sum || sh.Min != mh.Min || sh.Max != mh.Max {
			t.Errorf("histogram %s: merged %d/%d/%d/%d vs sequential %d/%d/%d/%d",
				name, mh.Count, mh.Sum, mh.Min, mh.Max, sh.Count, sh.Sum, sh.Min, sh.Max)
		}
	}

	// The merge itself is deterministic: a second parallel campaign renders
	// byte-identical registry JSON.
	_, merged2 := New(obsOpts()).CampaignObserved(cfg, true)
	var a, b bytes.Buffer
	if err := merged.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("merged registry JSON differs between identical parallel campaigns")
	}
}

// TestTraceDroppedSurfaced pins the trace.dropped gauge: a recorder clamped
// far below the run's event volume must report its truncation in the
// metrics snapshot.
func TestTraceDroppedSurfaced(t *testing.T) {
	r := New(obsOpts())
	reg := obsv.NewRegistry()
	rec := obsv.NewRecorder(10)
	r.RunObserved("swim", config.Default(), Obs{Reg: reg, Rec: rec})
	if rec.Dropped() == 0 {
		t.Fatal("10-event recorder dropped nothing over a 200k-instruction run")
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["trace.dropped"]; got != float64(rec.Dropped()) {
		t.Errorf("trace.dropped gauge = %g, want %d", got, rec.Dropped())
	}
}
