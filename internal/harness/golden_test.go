package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmem/internal/config"
)

// checkGolden compares a deterministic output with the committed file
// testdata/<name>.golden, byte for byte. On a mismatch it writes out over
// the file and fails naming it, so `git diff` shows which numbers moved and
// by how much; the next run passes. A deliberate model change commits the
// rewritten files and says why they moved. An unexplained diff is a bug.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if want, err := os.ReadFile(path); err == nil && string(want) == out {
		return
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s did not match this run, which has been written over it: git diff shows what moved", path)
}

// TestGoldenOutputs pins exact simulator outputs for three representative
// workloads at 300k instructions, seed 1: the baseline's cycles and L2
// misses, Split+GCM's cycles and Merkle fetches, and, for Figure 6's
// counter-prediction baseline at one and two AES engines, cycles, correct
// predictions and timely pads. mcf is the only one of the three that
// writes back, so its Pred rows also pin the baseline's write-back timing.
// Each line of testdata/GoldenOutputs.golden holds one number.
func TestGoldenOutputs(t *testing.T) {
	r := New(Options{Instructions: 300_000, Seed: 1})
	var b strings.Builder
	row := func(bench, machine, stat string, v uint64) {
		fmt.Fprintf(&b, "%-7s %-12s %-19s %d\n", bench, machine, stat, v)
	}
	for _, bench := range []string{"swim", "mcf", "crafty"} {
		base := r.Run(bench, config.Baseline())
		row(bench, "base", "cycles", base.CPU.Cycles)
		row(bench, "base", "L2 misses", base.CPU.L2Misses)
		split := r.Run(bench, Combined("Split+GCM"))
		row(bench, "Split+GCM", "cycles", split.CPU.Cycles)
		row(bench, "Split+GCM", "Merkle fetches", split.Ctl.MacFetches)
		for _, engines := range []int{1, 2} {
			pred := r.Run(bench, Predict(engines))
			machine := fmt.Sprintf("Pred (%d AES)", engines)
			row(bench, machine, "cycles", pred.CPU.Cycles)
			row(bench, machine, "correct predictions", pred.Predicted)
			row(bench, machine, "timely pads", pred.Ctl.TimelyPads)
		}
	}
	checkGolden(t, "GoldenOutputs", b.String())
}
