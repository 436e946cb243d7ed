package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// Figure tests run a reduced campaign (three representative benchmarks,
// short runs) and assert the qualitative shapes the paper reports. The full
// 21-benchmark campaign is exercised by cmd/paperbench and the benchmark
// harness.
func figRunner() *Runner {
	return New(Options{
		Instructions: 400_000,
		Seed:         1,
		Benches:      []string{"swim", "mcf", "crafty"},
	})
}

func TestFig4Shape(t *testing.T) {
	r := figRunner()
	tbl, data := r.Fig4()
	if !strings.Contains(tbl.String(), "Figure 4") {
		t.Error("table title missing")
	}
	avg := func(s string) float64 { return data[s]["Avg"] }
	// Split must beat every monolithic size except possibly Mono8b (which
	// gets free whole-memory re-encryption), and clearly beat Direct.
	if avg("Split") < avg("Mono16b") || avg("Split") < avg("Mono64b") {
		t.Errorf("split (%.3f) not best of counter modes: mono16 %.3f mono64 %.3f",
			avg("Split"), avg("Mono16b"), avg("Mono64b"))
	}
	if avg("Split") <= avg("Direct") {
		t.Errorf("split (%.3f) not better than direct (%.3f)", avg("Split"), avg("Direct"))
	}
	// Split ~ Mono8b (within a few percent), the paper's key Figure 4 claim.
	if d := avg("Split") - avg("Mono8b"); d < -0.05 || d > 0.1 {
		t.Errorf("split (%.3f) not comparable to Mono8b (%.3f)", avg("Split"), avg("Mono8b"))
	}
	// Larger monolithic counters do not help IPC.
	if avg("Mono64b") > avg("Mono16b")+0.02 {
		t.Errorf("mono64 (%.3f) better than mono16 (%.3f)", avg("Mono64b"), avg("Mono16b"))
	}
}

func TestTable2Shape(t *testing.T) {
	r := figRunner()
	tbl, overflow := r.Table2()
	if !strings.Contains(tbl.String(), "Table 2") {
		t.Error("table title missing")
	}
	// Larger counters take exponentially longer to overflow.
	for _, b := range []string{"mcf", "Avg"} {
		t8 := overflow["Mono8b"][b]
		t16 := overflow["Mono16b"][b]
		t64 := overflow["Mono64b"][b]
		if !(t8 < t16 && t16 < t64) {
			t.Errorf("%s: overflow times not ordered: %v %v %v", b, t8, t16, t64)
		}
	}
	// The global counter overflows much faster than a 32-bit local one
	// (it advances on every write-back, not just one block's).
	if overflow["Global32b"]["Avg"] >= overflow["Mono32b"]["Avg"] {
		t.Errorf("global32 overflow (%v) not faster than mono32 (%v)",
			overflow["Global32b"]["Avg"], overflow["Mono32b"]["Avg"])
	}
	// 64-bit counters are for practical purposes overflow-free: > 100 years.
	if overflow["Mono64b"]["Avg"] < 100*31557600 {
		t.Errorf("mono64 overflow estimate too small: %v s", overflow["Mono64b"]["Avg"])
	}
}

// TestTable2JSONEncodesNeverAsNull marshals Table 2's structured output
// over crafty, which never writes back: its counters never overflow, and
// encoding/json rejects the +Inf that stands for that.
func TestTable2JSONEncodesNeverAsNull(t *testing.T) {
	r := New(Options{Instructions: 100_000, Seed: 1, Benches: []string{"crafty"}})
	tbl, overflow := r.Table2()
	if !strings.Contains(tbl.String(), "never") {
		t.Errorf("table does not print a never-overflowing counter as never:\n%s", tbl)
	}
	raw, err := json.Marshal(map[string]any{"table2_overflow_seconds": overflow})
	if err != nil {
		t.Fatalf("marshal Table 2: %v", err)
	}
	var back map[string]map[string]map[string]*float64
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"Mono8b", "Global32b"} {
		for _, bench := range []string{"crafty", "Avg"} {
			if v, ok := back["table2_overflow_seconds"][scheme][bench]; !ok || v != nil {
				t.Errorf("%s/%s = %v (present %v), want null", scheme, bench, v, ok)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := figRunner()
	tbl, data := r.Fig5()
	_ = tbl
	// The paper's claim: split with a 16KB counter cache beats monolithic
	// with 128KB.
	if s, m := data["split 16KB"]["Avg"], data["mono 128KB"]["Avg"]; s < m-0.01 {
		t.Errorf("split@16KB (%.3f) below mono@128KB (%.3f)", s, m)
	}
	// Both schemes improve (weakly) with cache size.
	if data["split 128KB"]["Avg"]+0.02 < data["split 16KB"]["Avg"] {
		t.Errorf("split got worse with a bigger counter cache: %.3f -> %.3f",
			data["split 16KB"]["Avg"], data["split 128KB"]["Avg"])
	}
	if data["mono 128KB"]["Avg"]+0.02 < data["mono 16KB"]["Avg"] {
		t.Errorf("mono got worse with a bigger counter cache")
	}
}

func TestFig6aShape(t *testing.T) {
	r := figRunner()
	tbl, res := r.Fig6a()
	_ = tbl
	if res.SNCHitHalf < res.SNCHit {
		t.Error("hit+halfMiss below hit rate")
	}
	// Two engines must improve the prediction scheme's timely pads, and the
	// one-engine scheme must be starved relative to split (N=5 pads per
	// decryption on one engine).
	if res.TimelyPred2 <= res.TimelyPred1 {
		t.Errorf("timely pads: 2 engines (%.2f) not better than 1 (%.2f)",
			res.TimelyPred2, res.TimelyPred1)
	}
	if res.TimelyPred1 >= res.TimelySplit {
		t.Errorf("1-engine prediction timely pads (%.2f) not below split (%.2f)",
			res.TimelyPred1, res.TimelySplit)
	}
	if res.IPCPred2Engine <= res.IPCPred1Engine {
		t.Errorf("pred IPC: 2 engines (%.3f) not better than 1 (%.3f)",
			res.IPCPred2Engine, res.IPCPred1Engine)
	}
}

func TestFig6bShape(t *testing.T) {
	r := figRunner()
	_, series := r.Fig6b(4)
	if len(series) != 4 {
		t.Fatalf("windows = %d", len(series))
	}
	// Prediction rate starts high (fresh counters) and falls; the counter
	// cache hit rate stays roughly flat. Compare first and last windows.
	first, last := series[0], series[len(series)-1]
	if first[1] < last[1] {
		t.Errorf("prediction rate rose over time: %.3f -> %.3f", first[1], last[1])
	}
	if d := first[0] - last[0]; d > 0.15 || d < -0.15 {
		t.Errorf("counter cache hit rate not roughly stable: %.3f -> %.3f", first[0], last[0])
	}
}

func TestFig7Shape(t *testing.T) {
	r := figRunner()
	_, data := r.Fig7()
	avg := func(s string) float64 { return data[s]["Avg"] }
	// SHA-1 degrades monotonically with latency.
	lats := []string{"SHA-1 (80)", "SHA-1 (160)", "SHA-1 (320)", "SHA-1 (640)"}
	for i := 0; i+1 < len(lats); i++ {
		if avg(lats[i]) < avg(lats[i+1])-0.01 {
			t.Errorf("%s (%.3f) worse than %s (%.3f)", lats[i], avg(lats[i]), lats[i+1], avg(lats[i+1]))
		}
	}
	// Per benchmark: GCM at least matches 80-cycle SHA-1 everywhere except
	// mcf — the paper's one noted exception, where GCM's counter-cache
	// misses cause extra bus contention.
	for _, b := range []string{"swim", "crafty"} {
		if data["GCM"][b] < data["SHA-1 (80)"][b]-0.03 {
			t.Errorf("%s: GCM (%.3f) well below SHA-1@80 (%.3f)",
				b, data["GCM"][b], data["SHA-1 (80)"][b])
		}
		if data["GCM"][b] <= data["SHA-1 (320)"][b]-0.01 {
			t.Errorf("%s: GCM (%.3f) not better than SHA-1@320 (%.3f)",
				b, data["GCM"][b], data["SHA-1 (320)"][b])
		}
	}
	if data["GCM"]["mcf"] >= data["SHA-1 (80)"]["mcf"] {
		t.Errorf("mcf: expected GCM (%.3f) below SHA-1@80 (%.3f) — the paper's counter-cache outlier",
			data["GCM"]["mcf"], data["SHA-1 (80)"]["mcf"])
	}
}

func TestFig8Shape(t *testing.T) {
	r := figRunner()
	_, data := r.Fig8()
	avg := func(s string) float64 { return data[s]["Avg"] }
	// Stricter requirements cost more, for both schemes.
	for _, scheme := range []string{"GCM", "SHA"} {
		lazy, commit, safe := avg(scheme+" lazy"), avg(scheme+" commit"), avg(scheme+" safe")
		if !(lazy >= commit-0.01 && commit >= safe-0.01) {
			t.Errorf("%s: lazy %.3f commit %.3f safe %.3f not ordered", scheme, lazy, commit, safe)
		}
	}
	// Under safe, GCM holds up far better than SHA-1 (the paper's 6% vs 24%).
	if avg("GCM safe") <= avg("SHA safe") {
		t.Errorf("GCM safe (%.3f) not better than SHA safe (%.3f)",
			avg("GCM safe"), avg("SHA safe"))
	}
	// Parallel tree authentication helps both.
	if avg("GCM parallel") < avg("GCM nonpar")-0.005 {
		t.Errorf("GCM parallel (%.3f) below sequential (%.3f)",
			avg("GCM parallel"), avg("GCM nonpar"))
	}
	if avg("SHA parallel") < avg("SHA nonpar")-0.005 {
		t.Errorf("SHA parallel (%.3f) below sequential (%.3f)",
			avg("SHA parallel"), avg("SHA nonpar"))
	}
}

func TestFig9Shape(t *testing.T) {
	r := figRunner()
	_, data := r.Fig9()
	avg := func(s string) float64 { return data[s]["Avg"] }
	// The paper's headline: Split+GCM is the best combined scheme, and
	// SHA-based schemes trail the GCM ones.
	best := avg("Split+GCM")
	for _, other := range []string{"Split+SHA", "Mono+SHA", "XOM+SHA"} {
		if best <= avg(other) {
			t.Errorf("Split+GCM (%.3f) not better than %s (%.3f)", best, other, avg(other))
		}
	}
	if best < avg("Mono+GCM")-0.01 {
		t.Errorf("Split+GCM (%.3f) below Mono+GCM (%.3f)", best, avg("Mono+GCM"))
	}
	if avg("Mono+GCM") <= avg("Mono+SHA") {
		t.Errorf("GCM not helping over SHA under mono counters")
	}
}

func TestFig10Shape(t *testing.T) {
	r := figRunner()
	_, data := r.Fig10()
	// Split+GCM stays best across requirement variants and MAC sizes.
	for _, v := range []string{"/lazy", "/commit", "/safe", "/mac128", "/mac64", "/mac32"} {
		sg := data["Split+GCM"+v]["Avg"]
		ms := data["Mono+SHA"+v]["Avg"]
		if sg <= ms {
			t.Errorf("variant %s: Split+GCM (%.3f) not better than Mono+SHA (%.3f)", v, sg, ms)
		}
	}
	// Bigger MACs cost (weakly) more: deeper trees, more traffic.
	sg32 := data["Split+GCM/mac32"]["Avg"]
	sg128 := data["Split+GCM/mac128"]["Avg"]
	if sg128 > sg32+0.02 {
		t.Errorf("128-bit MACs (%.3f) outperform 32-bit (%.3f)", sg128, sg32)
	}
}

func TestScalarsShape(t *testing.T) {
	r := New(Options{
		Instructions: 600_000,
		Seed:         1,
		Benches:      []string{"twolf", "equake", "applu"},
	})
	tbl, res := r.Scalars()
	_ = tbl
	if res.OnChipFraction < 0 || res.OnChipFraction > 1 {
		t.Errorf("on-chip fraction %v out of range", res.OnChipFraction)
	}
	// Split must do far less re-encryption work than mono8 whole-memory
	// re-encryption... when any mono8 overflow happened at this scale.
	if res.WorkRatio > 0.05 && res.WorkRatio != 0 {
		t.Errorf("split/mono8 work ratio %.4f not tiny", res.WorkRatio)
	}
}
