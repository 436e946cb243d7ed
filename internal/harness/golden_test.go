package harness

import (
	"testing"

	"secmem/internal/config"
)

// TestGoldenOutputs pins exact simulator outputs for three representative
// workloads. The simulator is deterministic, so any drift here means a
// timing-model change: if the change was intentional, regenerate the
// values (instructions below); if not, a regression slipped in.
//
// Regenerate by running the three pairs below at 300k instructions, seed 1,
// and printing base.CPU.Cycles, base.CPU.L2Misses, split.CPU.Cycles,
// split.Ctl.MacFetches.
func TestGoldenOutputs(t *testing.T) {
	golden := []struct {
		bench                 string
		baseCycles, baseMiss  uint64
		splitCycles, macFetch uint64
	}{
		{"swim", 637163, 13420, 1082942, 2676},
		{"mcf", 3019256, 38016, 11537616, 44415},
		{"crafty", 365612, 5483, 412059, 881},
	}
	r := New(Options{Instructions: 300_000, Seed: 1})
	for _, g := range golden {
		base := r.Run(g.bench, config.Baseline())
		split := r.Run(g.bench, Combined("Split+GCM"))
		if base.CPU.Cycles != g.baseCycles {
			t.Errorf("%s: baseline cycles = %d, golden %d", g.bench, base.CPU.Cycles, g.baseCycles)
		}
		if base.CPU.L2Misses != g.baseMiss {
			t.Errorf("%s: baseline L2 misses = %d, golden %d", g.bench, base.CPU.L2Misses, g.baseMiss)
		}
		if split.CPU.Cycles != g.splitCycles {
			t.Errorf("%s: Split+GCM cycles = %d, golden %d", g.bench, split.CPU.Cycles, g.splitCycles)
		}
		if split.Ctl.MacFetches != g.macFetch {
			t.Errorf("%s: Merkle fetches = %d, golden %d", g.bench, split.Ctl.MacFetches, g.macFetch)
		}
	}
	// Figure 6's counter-prediction baseline at one and two AES engines.
	// mcf is the only one of the three that writes back, so its rows also
	// pin the baseline's write-back timing. Regenerate by printing the
	// cycles, correct predictions and timely pads of each run.
	pred := []struct {
		bench                     string
		engines                   int
		cycles, predicted, timely uint64
	}{
		{"swim", 1, 1349215, 13420, 1410},
		{"swim", 2, 780464, 13420, 6862},
		{"mcf", 1, 4720348, 37693, 24752},
		{"mcf", 2, 3637271, 37693, 36875},
		{"crafty", 1, 604926, 5483, 1361},
		{"crafty", 2, 416960, 5483, 3498},
	}
	for _, g := range pred {
		out := r.Run(g.bench, Predict(g.engines))
		if out.CPU.Cycles != g.cycles {
			t.Errorf("%s Pred (%d engines): cycles = %d, golden %d", g.bench, g.engines, out.CPU.Cycles, g.cycles)
		}
		if out.Predicted != g.predicted {
			t.Errorf("%s Pred (%d engines): correct predictions = %d, golden %d", g.bench, g.engines, out.Predicted, g.predicted)
		}
		if out.Ctl.TimelyPads != g.timely {
			t.Errorf("%s Pred (%d engines): timely pads = %d, golden %d", g.bench, g.engines, out.Ctl.TimelyPads, g.timely)
		}
	}
}
