// Command secmemsim runs one secure-memory simulation: a synthetic SPEC
// 2000-like workload over a configurable protection scheme, printing IPC,
// normalized IPC, and the controller/counter/re-encryption statistics.
//
// Examples:
//
//	secmemsim -bench swim -enc split -auth gcm
//	secmemsim -bench mcf -enc mono -bits 16 -auth sha -shalat 320 -req safe
//	secmemsim -bench art -enc direct -instr 5000000
//	secmemsim -bench swim -metrics m.json -trace t.json
//	secmemsim -bench all -metrics m.json
//
// -metrics writes the run's registry (counters, gauges and histograms at
// its final cycle) and -trace its event timeline; cmd/secmemobs renders
// and validates both.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/harness"
	"secmem/internal/obsv"
	"secmem/internal/stats"
	"secmem/internal/trace"
)

func main() {
	var (
		bench    = flag.String("bench", "swim", "workload: one of the 21 SPEC 2000 profiles, or 'all'")
		enc      = flag.String("enc", "split", "encryption: none|direct|mono|split|global")
		bits     = flag.Int("bits", 64, "monolithic/global counter bits (8|16|32|64)")
		auth     = flag.String("auth", "gcm", "authentication: none|sha|gcm")
		shaLat   = flag.Uint64("shalat", 320, "SHA-1 engine latency in cycles")
		req      = flag.String("req", "commit", "authentication requirement: lazy|commit|safe")
		macBits  = flag.Int("mac", 64, "MAC size in bits (32|64|128)")
		parallel = flag.Bool("parallel", true, "authenticate Merkle levels in parallel")
		ctrAuth  = flag.Bool("ctrauth", true, "authenticate counters on fetch (Section 4.3 fix)")
		sncKB    = flag.Int("snc", 32, "counter cache size in KB")
		instr    = flag.Uint64("instr", 2_000_000, "instructions to simulate")
		seed     = flag.Int64("seed", 1, "workload seed")
		funcMode = flag.Bool("functional", false, "enable the byte-level crypto layer (real AES pads, GHASH MACs) under the timing model")
		timeline = flag.Bool("timeline", false, "print the Figure 1 L2-miss timelines for this configuration and exit")
		overhead = flag.Bool("overhead", false, "print memory space overheads for the paper's schemes and exit")

		metricsOut = flag.String("metrics", "", "write the observability registry (counters/gauges/histograms) as JSON to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline (chrome://tracing, Perfetto) to this file")
		traceLimit = flag.Int("tracelimit", 0, "cap on recorded trace events (0 = default cap)")
	)
	flag.Parse()

	cfg := config.Default()
	switch strings.ToLower(*enc) {
	case "none":
		cfg.Enc = config.EncNone
	case "direct":
		cfg.Enc = config.EncDirect
	case "mono":
		cfg.Enc = config.EncCounterMono
	case "split":
		cfg.Enc = config.EncCounterSplit
	case "global":
		cfg.Enc = config.EncCounterGlobal
	default:
		fatalf("unknown -enc %q", *enc)
	}
	cfg.MonoCounterBits = *bits
	switch strings.ToLower(*auth) {
	case "none":
		cfg.Auth = config.AuthNone
		cfg.AuthenticateCounters = false
	case "sha":
		cfg.Auth = config.AuthSHA1
	case "gcm":
		cfg.Auth = config.AuthGCM
	default:
		fatalf("unknown -auth %q", *auth)
	}
	cfg.SHA1Latency = *shaLat
	switch strings.ToLower(*req) {
	case "lazy":
		cfg.Req = config.AuthLazy
	case "commit":
		cfg.Req = config.AuthCommit
	case "safe":
		cfg.Req = config.AuthSafe
	default:
		fatalf("unknown -req %q", *req)
	}
	cfg.MACBits = *macBits
	cfg.ParallelAuth = *parallel
	if cfg.Auth != config.AuthNone {
		cfg.AuthenticateCounters = *ctrAuth
	}
	cfg.CounterCache.SizeBytes = *sncKB << 10
	if err := cfg.Validate(); err != nil {
		fatalf("invalid configuration: %v", err)
	}
	if *timeline {
		fmt.Print(core.Figure1Table(cfg).String())
		return
	}
	if *overhead {
		schemes := map[string]config.SystemConfig{"current": cfg}
		order := []string{"current"}
		for _, name := range harness.CombinedNames() {
			schemes[name] = harness.Combined(name)
			order = append(order, name)
		}
		fmt.Print(core.OverheadTable(schemes, order).String())
		return
	}

	if *instr == 0 {
		// harness.New would run its 2M default instead.
		fatalf("-instr 0: no instructions to run (valid: 1 or more)")
	}
	if *traceLimit < 0 {
		// obsv.NewRecorder would record up to its default cap instead.
		fatalf("-tracelimit %d: negative event cap (valid: 0 for the default cap, or a positive cap)", *traceLimit)
	}
	benches := []string{*bench}
	if *bench == "all" {
		benches = trace.Names()
	} else if _, ok := trace.Profiles()[*bench]; !ok {
		fatalf("unknown benchmark %q; available: %s, all", *bench, strings.Join(trace.Names(), " "))
	}

	// The trace recorder is single-benchmark only — every run restarts at
	// cycle 0, so a second run's spans would overlap the first's on the
	// same timeline.
	if len(benches) > 1 && *traceOut != "" {
		fatalf("-trace requires a single benchmark (runs restart at cycle 0 and would overlap in the timeline); pick one with -bench")
	}

	var obs harness.Obs
	if *metricsOut != "" {
		obs.Reg = obsv.NewRegistry()
	}
	if *traceOut != "" {
		obs.Rec = obsv.NewRecorder(*traceLimit)
	}

	r := harness.New(harness.Options{Instructions: *instr, Seed: *seed, Benches: benches,
		Functional: *funcMode})
	tbl := stats.Table{
		Title: fmt.Sprintf("secmemsim: %s, %s requirement, %d instructions", cfg.SchemeName(), cfg.Req, r.Opt.Instructions),
		Cols: []string{"bench", "IPC", "norm IPC", "L2 miss", "ctr hit", "timely pad",
			"page reencs", "mac fetch", "tamper"},
	}
	var outs []harness.RunOut
	if len(benches) > 1 {
		// Every run of a multi-benchmark table is independent: run the
		// baselines, then fan the runs out. With -metrics each run records
		// into its own registry and the merge sums counters and histograms
		// exactly as one shared registry would; gauges report the busiest
		// benchmark.
		r.Prefetch(config.Baseline())
		outs, obs.Reg = r.CampaignObserved(cfg, obs.Reg != nil)
	} else {
		outs = []harness.RunOut{r.RunObserved(benches[0], cfg, obs)}
	}
	for i, b := range benches {
		out := outs[i]
		tbl.AddRow(b,
			stats.F(out.IPC),
			stats.F(out.IPC/r.Baseline(b)),
			fmt.Sprintf("%d", out.CPU.L2Misses),
			stats.Pct(out.CtrHitRate()),
			stats.Pct(out.TimelyPadRate()),
			fmt.Sprintf("%d", out.RSR.PageReencs),
			fmt.Sprintf("%d", out.Ctl.MacFetches),
			fmt.Sprintf("%d", out.Ctl.TamperDetected),
		)
	}
	fmt.Print(tbl.String())

	if obs.Reg != nil {
		if err := writeTo(*metricsOut, obs.Reg.WriteJSON); err != nil {
			fatalf("writing metrics: %v", err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if obs.Rec != nil {
		if err := writeTo(*traceOut, obs.Rec.WriteJSON); err != nil {
			fatalf("writing trace: %v", err)
		}
		if d := obs.Rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "secmemsim: warning: %d trace events dropped at the cap (raise -tracelimit)\n", d)
		}
		fmt.Printf("trace written to %s (%d events; load in chrome://tracing or ui.perfetto.dev)\n",
			*traceOut, obs.Rec.Len())
	}
}

// writeTo writes via fn into path, creating or truncating it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "secmemsim: "+format+"\n", args...)
	os.Exit(2)
}
