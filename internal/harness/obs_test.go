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

// TestInstrumentationIsTimingNeutral pins the instrumentation invariant:
// attaching a registry and a trace recorder must not change a single
// simulated number. The hooks only count and record; if one ever perturbed
// the timing model, the metrics and the trace would describe a different
// run from the uninstrumented one the figures report.
func TestInstrumentationIsTimingNeutral(t *testing.T) {
	r := New(obsOpts())
	cfg := config.Default()

	plain := r.Run("swim", cfg)

	reg, rec := obsv.NewRegistry(), obsv.NewRecorder(0)
	observed := r.RunObserved("swim", cfg, Obs{Reg: reg, Rec: rec})

	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("instrumentation changed simulated results:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if rec.Len() == 0 || len(reg.Snapshot().Counters) == 0 {
		t.Error("instrumented run recorded nothing over a 200k-instruction run")
	}
}

// TestObservedTraceIsDeterministic runs the same instrumented simulation
// twice and requires byte-identical traces.
func TestObservedTraceIsDeterministic(t *testing.T) {
	render := func() string {
		r := New(obsOpts())
		rec := obsv.NewRecorder(0)
		r.RunObserved("mcf", config.Default(), Obs{Reg: obsv.NewRegistry(), Rec: rec})
		var tr bytes.Buffer
		if err := rec.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		return tr.String()
	}
	if render() != render() {
		t.Error("trace differs between identical runs")
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
			t.Errorf("bench %s: parallel campaign result differs from sequential", obsOpts().Benches[i])
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
