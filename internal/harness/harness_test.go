package harness

import (
	"bytes"
	"reflect"
	"testing"

	"secmem/internal/config"
)

// quickRunner keeps unit-test turnaround fast; the shape assertions below
// hold at this scale and above (the full campaign uses cmd/paperbench).
func quickRunner(benches ...string) *Runner {
	opt := Options{Instructions: 400_000, Seed: 1}
	if len(benches) > 0 {
		opt.Benches = benches
	}
	return New(opt)
}

func TestBaselineCaching(t *testing.T) {
	r := quickRunner("swim")
	a := r.Baseline("swim")
	b := r.Baseline("swim")
	if a != b || a <= 0 {
		t.Fatalf("baseline caching broken: %v vs %v", a, b)
	}
}

// TestRunDeterministic runs one pair on two Runners: a second Run on one
// Runner would only read the first from the cache.
func TestRunDeterministic(t *testing.T) {
	cfg := EncOnly(config.EncCounterSplit, 64)
	x := quickRunner().Run("art", cfg)
	y := quickRunner().Run("art", cfg)
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("nondeterministic run: %+v vs %+v", x.CPU, y.CPU)
	}
}

// TestRunCacheSharesEqualMachines checks that figures share the runs of
// equal machines and that a cached run is the run itself. Figure 7 runs
// the baseline and five schemes; Figure 8 adds six, since its commit and
// parallel rows are Figure 7's GCM and SHA-1 (320) machines.
func TestRunCacheSharesEqualMachines(t *testing.T) {
	benches := []string{"swim", "crafty"}
	opt := Options{Instructions: 50_000, Seed: 1, Benches: benches}
	r := New(opt)
	r.Fig7()
	if len(r.runs) != 12 {
		t.Errorf("after Fig7: %d cached runs, want 12", len(r.runs))
	}
	r.Fig8()
	if len(r.runs) != 24 {
		t.Errorf("after Fig8: %d cached runs, want 24", len(r.runs))
	}
	for _, cfg := range []config.SystemConfig{config.Baseline(), AuthOnly(config.AuthSHA1, 320, config.AuthCommit, false)} {
		for _, b := range benches {
			cached, ok := r.runs[runKey{b, cfg}]
			if !ok {
				t.Fatalf("%s on %s not cached", cfg.SchemeName(), b)
			}
			if fresh := New(opt).RunObserved(b, cfg, Obs{}); !reflect.DeepEqual(cached, fresh) {
				t.Errorf("%s on %s: cached run differs from a fresh one:\ncached %+v\nfresh  %+v", cfg.SchemeName(), b, cached, fresh)
			}
		}
	}
}

func TestNormIPCBounds(t *testing.T) {
	r := quickRunner("swim", "crafty")
	for _, b := range []string{"swim", "crafty"} {
		v := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		if v <= 0 || v > 1.05 {
			t.Errorf("%s split normalized IPC = %.3f, out of (0, 1.05]", b, v)
		}
	}
}

func TestMemoryBoundSufferMoreFromDirect(t *testing.T) {
	r := quickRunner("swim", "crafty")
	direct := EncOnly(config.EncDirect, 64)
	swim := r.NormIPC("swim", direct)
	crafty := r.NormIPC("crafty", direct)
	if swim >= crafty {
		t.Errorf("direct: swim %.3f not worse than crafty %.3f", swim, crafty)
	}
}

func TestSplitBeatsDirect(t *testing.T) {
	r := quickRunner("swim", "art", "applu")
	for _, b := range []string{"swim", "art", "applu"} {
		split := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		direct := r.NormIPC(b, EncOnly(config.EncDirect, 64))
		if split <= direct {
			t.Errorf("%s: split %.3f not better than direct %.3f", b, split, direct)
		}
	}
}

func TestSplitBeatsMono64(t *testing.T) {
	r := quickRunner("swim", "art")
	for _, b := range []string{"swim", "art"} {
		split := r.NormIPC(b, EncOnly(config.EncCounterSplit, 64))
		mono := r.NormIPC(b, EncOnly(config.EncCounterMono, 64))
		if split <= mono {
			t.Errorf("%s: split %.3f not better than mono64 %.3f", b, split, mono)
		}
	}
}

// TestHonestFunctionalRunHasNoTamper runs swim functionally on the default
// machine at seeds where a Merkle node fill during a counter-block fetch
// evicts a dirty data block. That block's write-back bumps a counter in
// the counter block being fetched; installing the fetched memory image
// after the bump rolled it back, and a later fill reported a tamper.
func TestHonestFunctionalRunHasNoTamper(t *testing.T) {
	for _, seed := range []int64{103694313, 265862674, 815158698} {
		r := New(Options{Instructions: 1_000_000, Seed: seed, Functional: true})
		if n := r.Run("swim", config.Default()).Ctl.TamperDetected; n != 0 {
			t.Errorf("seed %d: %d tamper(s) on an honest run", seed, n)
		}
	}
}

func TestMcfIsTheCounterCacheOutlier(t *testing.T) {
	// The paper singles out mcf: its enormous pointer-chased working set
	// defeats the counter cache.
	r := quickRunner("mcf", "swim")
	mcf := r.Run("mcf", EncOnly(config.EncCounterSplit, 64))
	swim := r.Run("swim", EncOnly(config.EncCounterSplit, 64))
	if mcf.CtrHitRate() >= swim.CtrHitRate() {
		t.Errorf("mcf counter hit rate %.2f not below swim's %.2f",
			mcf.CtrHitRate(), swim.CtrHitRate())
	}
}

func TestCombinedConstructors(t *testing.T) {
	for _, name := range CombinedNames() {
		cfg := Combined(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cfg.SchemeName() == "base" {
			t.Errorf("%s: scheme name empty", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown combined scheme did not panic")
		}
	}()
	Combined("Triple+ROT13")
}

func TestAuthOnlyConfigs(t *testing.T) {
	gcm := AuthOnly(config.AuthGCM, 320, config.AuthCommit, true)
	if gcm.Enc != config.EncNone || !gcm.AuthenticateCounters {
		t.Errorf("GCM auth-only config wrong: %+v", gcm.Enc)
	}
	sha := AuthOnly(config.AuthSHA1, 640, config.AuthSafe, false)
	if sha.SHA1Latency != 640 || sha.ParallelAuth || sha.Req != config.AuthSafe {
		t.Error("SHA auth-only config wrong")
	}
	if sha.AuthenticateCounters {
		t.Error("SHA-only config should not authenticate counters")
	}
}

func TestWithCounterCache(t *testing.T) {
	cfg := WithCounterCache(EncOnly(config.EncCounterSplit, 64), 128<<10)
	if cfg.CounterCache.SizeBytes != 128<<10 {
		t.Error("counter cache size not applied")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParallelForCoversAll(t *testing.T) {
	r := New(Options{Instructions: 1})
	r.workers = 4
	seen := make([]bool, 100)
	r.parallelFor(len(seen), func(i int) { seen[i] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestPredictorRun(t *testing.T) {
	r := quickRunner("gcc")
	out := r.Run("gcc", Predict(1))
	if out.CPU.Instructions == 0 || out.Ctl.PadReads == 0 || out.Predicted == 0 {
		t.Fatalf("predictor run empty: %+v", out)
	}
	if name := Predict(1).SchemeName(); name != "Pred" {
		t.Errorf("scheme = %q, want Pred", name)
	}
}

func TestZeroStatsRates(t *testing.T) {
	var out RunOut
	if out.PredictionRate() != 1 || out.TimelyPadRate() != 1 {
		t.Error("zero stats rates should be 1")
	}
}

// TestParallelismDoesNotChangeResults runs every figure's reduction and
// every parallelFor site serially and on four workers and requires
// identical results. Runs are independent simulations, so the worker count
// must not change any number. The explicit worker count also puts the
// fan-outs on several goroutines on a one-core host, where GOMAXPROCS
// would run them serially, so `go test -race` sees the shared state of
// Prefetch, CampaignObserved, MetricDeltas and Fig6b.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *Runner) any
	}{
		{"normGrid", func(r *Runner) any { tbl, data := r.Fig5(); return []any{tbl.String(), data} }},
		{"Table2", func(r *Runner) any { tbl, data := r.Table2(); return []any{tbl.String(), data} }},
		{"Fig6a", func(r *Runner) any { tbl, res := r.Fig6a(); return []any{tbl.String(), res} }},
		{"Fig6b", func(r *Runner) any { tbl, series := r.Fig6b(2); return []any{tbl.String(), series} }},
		{"Scalars", func(r *Runner) any { tbl, res := r.Scalars(); return []any{tbl.String(), res} }},
		{"sweep", func(r *Runner) any { tbl, rows := r.AblateMonoCharge(); return []any{tbl.String(), rows} }},
		{"CampaignObserved", func(r *Runner) any {
			outs, reg := r.CampaignObserved(config.Default(), true)
			var js bytes.Buffer
			if err := reg.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			plain, none := r.CampaignObserved(config.Default(), false)
			if none != nil {
				t.Error("uninstrumented campaign returned a registry")
			}
			return []any{outs, js.String(), plain}
		}},
		{"Prefetch", func(r *Runner) any { r.Prefetch(config.Baseline(), config.Default()); return r.runs }},
		{"MetricDeltas", func(r *Runner) any { return r.MetricDeltas(config.Default()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int) any {
				r := New(Options{
					Instructions: 50_000,
					Seed:         1,
					Benches:      []string{"swim", "crafty", "twolf"},
				})
				r.workers = workers
				return c.run(r)
			}
			serial, parallel := run(1), run(4)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s: results differ between 1 and 4 workers:\nserial   %+v\nparallel %+v", c.name, serial, parallel)
			}
		})
	}
}
