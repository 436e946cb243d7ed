// Package harness drives the paper's evaluation: it builds a
// simulated machine per (benchmark, scheme) pair, runs the synthetic
// workload, normalizes IPC against the unprotected baseline, and formats
// each of the paper's tables and figures.
//
// Runs are independent, so the harness fans them out across CPUs; results
// are deterministic for a given (options, scheme) regardless of
// parallelism.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/obsv"
	"secmem/internal/predictor"
	"secmem/internal/reenc"
	"secmem/internal/stats"
	"secmem/internal/trace"
)

// Options controls an evaluation campaign.
type Options struct {
	// Instructions per run (the paper simulates 1B; the default trades
	// that down to something a laptop regenerates in minutes while keeping
	// the relative results stable).
	Instructions uint64
	// Seed feeds the workload generators.
	Seed int64
	// Benches lists the workloads; nil means all 21.
	Benches []string
	// Parallelism bounds concurrent simulation runs within a campaign.
	// Zero and negative values both mean "use GOMAXPROCS workers" — the
	// zero value of Options must behave like DefaultOptions here, and a
	// negative value (e.g. from a miscomputed flag) is clamped rather than
	// silently serializing or panicking. Any positive value is honoured
	// exactly, even above GOMAXPROCS. Parallelism never affects results,
	// only wall time: every run is deterministic in (bench, config, seed).
	Parallelism int
	// Functional runs every campaign simulation with the byte-level
	// crypto layer enabled (real AES pads, GHASH MACs, and tree updates
	// per transfer) on top of the timing model. The simulated numbers are
	// identical either way — the functional layer shares the timing
	// path's presence/dirty decisions — so figure campaigns leave this
	// off for speed; the speed benchmarks turn it on to measure the
	// crypto kernels under a realistic access stream.
	Functional bool
}

// DefaultOptions returns a campaign sized for interactive use.
func DefaultOptions() Options {
	return Options{Instructions: 2_000_000, Seed: 1}
}

func (o Options) benches() []string {
	if len(o.Benches) > 0 {
		return o.Benches
	}
	return trace.Names()
}

// RunOut captures everything a figure needs from one simulation.
type RunOut struct {
	Bench  string
	Scheme string
	CPU    cpu.Result
	IPC    float64
	Ctl    core.Stats
	// Counter-cache and counter statistics (zero when unused).
	CtrHits, CtrHalfMisses, CtrMisses uint64
	CtrIncrements                     uint64
	FastestIncr                       uint64
	RSR                               reenc.Stats
	Seconds                           float64 // simulated wall time
	BusBusy, BusWait                  uint64  // bus occupancy and queue delay
	AESIssues                         uint64
	// PageFastestIncrs holds, per touched encryption page, the write-back
	// count of its fastest-advancing block (Section 6.1 analysis).
	PageFastestIncrs []uint64
}

// CtrHitRate is hits over all counter-cache lookups.
func (r RunOut) CtrHitRate() float64 {
	n := r.CtrHits + r.CtrHalfMisses + r.CtrMisses
	if n == 0 {
		return 1
	}
	return float64(r.CtrHits) / float64(n)
}

// CtrHitPlusHalf counts half-misses as on-chip (the paper's second bar).
func (r RunOut) CtrHitPlusHalf() float64 {
	n := r.CtrHits + r.CtrHalfMisses + r.CtrMisses
	if n == 0 {
		return 1
	}
	return float64(r.CtrHits+r.CtrHalfMisses) / float64(n)
}

// TimelyPadRate is the fraction of counter-mode decryptions whose pad beat
// the data fetch.
func (r RunOut) TimelyPadRate() float64 {
	if r.Ctl.PadReads == 0 {
		return 1
	}
	return float64(r.Ctl.TimelyPads) / float64(r.Ctl.PadReads)
}

// Runner executes runs and caches baseline IPCs.
type Runner struct {
	Opt Options

	mu        sync.Mutex
	baselines map[string]float64
	tableErr  error
}

// noteTableErr records the first malformed-figure-row error. Figure tables
// are assembled from dynamic slices; an arity bug should fail the whole run
// with context (via Err) rather than panic mid-campaign.
func (r *Runner) noteTableErr(err error) {
	r.mu.Lock()
	if r.tableErr == nil {
		r.tableErr = err
	}
	r.mu.Unlock()
}

// Err reports the first table-assembly error encountered by any figure or
// ablation built so far; drivers check it after rendering and fail the run.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tableErr
}

// addRow appends a dynamically assembled row via TryAddRow, converting a
// malformed row into a run-failing error that names the table and row.
func (r *Runner) addRow(tbl *stats.Table, cells ...string) {
	if err := tbl.TryAddRow(cells...); err != nil {
		r.noteTableErr(fmt.Errorf("harness: %w (row %q)", err, cells))
	}
}

// New builds a Runner.
func New(opt Options) *Runner {
	if opt.Instructions == 0 {
		opt.Instructions = DefaultOptions().Instructions
	}
	return &Runner{Opt: opt, baselines: make(map[string]float64)}
}

// Obs bundles the observability sinks of an instrumented run. Any field
// may be nil; the zero Obs means "uninstrumented". Smp attaches a cycle-
// driven time-series sampler; when both Smp and Rec are set, the sampled
// trajectories are merged into the trace as Perfetto counter tracks after
// the run.
type Obs struct {
	Reg *obsv.Registry
	Rec *obsv.Recorder
	Smp *obsv.Sampler
}

// Run simulates one (benchmark, configuration) pair.
func (r *Runner) Run(bench string, cfg config.SystemConfig) RunOut {
	return r.RunObserved(bench, cfg, Obs{})
}

// RunObserved is Run with observability attached: the memory system is
// instrumented against obs before the workload starts, and end-of-run
// utilization gauges are exported at the run's final cycle. Counters
// accumulate across successive runs sharing a registry; gauges reflect the
// latest run.
func (r *Runner) RunObserved(bench string, cfg config.SystemConfig, obs Obs) RunOut {
	if r.Opt.Functional {
		cfg.Functional = true
	}
	mem, err := core.NewMemSystem(cfg)
	if err != nil {
		panic(err) // configurations are code, not input
	}
	if obs.Reg != nil || obs.Rec != nil {
		mem.Instrument(obs.Reg, obs.Rec)
	}
	if obs.Smp != nil {
		mem.AttachSampler(obs.Smp)
	}
	gen := trace.NewGenerator(trace.Get(bench), r.Opt.Seed)
	c := cpu.New(cfg, mem)
	res := c.Run(gen, r.Opt.Instructions)
	if obs.Smp != nil {
		// Close the series at the run's final cycle, then merge the
		// trajectories into the trace as counter tracks (before ExportObs
		// so the trace.dropped gauge counts these events too).
		obs.Smp.SampleAt(uint64(res.Cycles))
		obs.Smp.EmitTrace(obs.Rec)
	}
	if obs.Reg != nil {
		mem.ExportObs(res.Cycles)
	}
	if cfg.ChargeMonoReenc {
		// Whole-memory re-encryption freezes are charged by adding their
		// analytic cost to the run's cycle count (the processor does
		// nothing useful during a freeze).
		res.Cycles += mem.Controller().Stats.FreezeCycles
	}
	return collectRunOut(bench, cfg, mem, res)
}

// collectRunOut assembles a RunOut from a finished machine.
func collectRunOut(bench string, cfg config.SystemConfig, mem *core.MemSystem, res cpu.Result) RunOut {
	out := RunOut{
		Bench:   bench,
		Scheme:  cfg.SchemeName(),
		CPU:     res,
		IPC:     res.IPC(),
		Ctl:     mem.Controller().Stats,
		Seconds: res.Seconds(cfg.ClockGHz),
	}
	if ctrs := mem.Controller().Counters(); ctrs != nil {
		st := ctrs.Stats
		out.CtrHits, out.CtrHalfMisses, out.CtrMisses = st.Hits, st.HalfMisses, st.Misses
		out.CtrIncrements = st.Increments
		out.FastestIncr, _ = ctrs.FastestCounter()
		// Per-page fastest counters, for the Section 6.1 analytic work
		// ratio: a page re-encrypts at the rate of its fastest minor.
		pageFastest := map[uint64]uint64{}
		ctrs.ForEachIncrement(func(addr, count uint64) {
			page := addr / (uint64(cfg.PageBlocks) * 64)
			if count > pageFastest[page] {
				pageFastest[page] = count
			}
		})
		out.PageFastestIncrs = make([]uint64, 0, len(pageFastest))
		for _, v := range pageFastest {
			out.PageFastestIncrs = append(out.PageFastestIncrs, v)
		}
		// Map iteration order would leak into the RunOut otherwise; sorted,
		// identical runs compare DeepEqual and goldens stay byte-stable.
		sort.Slice(out.PageFastestIncrs, func(i, j int) bool {
			return out.PageFastestIncrs[i] < out.PageFastestIncrs[j]
		})
	}
	if rsrs := mem.Controller().RSRs(); rsrs != nil {
		out.RSR = rsrs.Stats
	}
	out.BusBusy = mem.Controller().Bus().BusyCycles()
	out.BusWait = mem.Controller().Bus().QueueDelay()
	out.AESIssues = mem.Controller().AES().Issues()
	return out
}

// CampaignObserved runs every benchmark in the campaign against cfg in
// parallel and returns the per-benchmark results in campaign order. With
// metrics set, each run records into its own registry and the second
// result is obsv.Merge of them: no registry is ever touched by two
// goroutines, and the merged snapshot is independent of scheduling.
// Without it the runs are uninstrumented and the registry is nil.
func (r *Runner) CampaignObserved(cfg config.SystemConfig, metrics bool) ([]RunOut, *obsv.Registry) {
	benches := r.Opt.benches()
	regs := make([]*obsv.Registry, len(benches))
	outs := make([]RunOut, len(benches))
	r.parallelFor(len(benches), func(i int) {
		if metrics {
			regs[i] = obsv.NewRegistry()
		}
		outs[i] = r.RunObserved(benches[i], cfg, Obs{Reg: regs[i]})
	})
	if !metrics {
		return outs, nil
	}
	return outs, obsv.Merge(regs)
}

// Baseline returns the unprotected-machine IPC for a benchmark, cached.
func (r *Runner) Baseline(bench string) float64 {
	r.mu.Lock()
	v, ok := r.baselines[bench]
	r.mu.Unlock()
	if ok {
		return v
	}
	out := r.Run(bench, config.Baseline())
	r.mu.Lock()
	r.baselines[bench] = out.IPC
	r.mu.Unlock()
	return out.IPC
}

// NormIPC runs a configuration and normalizes its IPC to the baseline.
func (r *Runner) NormIPC(bench string, cfg config.SystemConfig) float64 {
	base := r.Baseline(bench)
	if base == 0 {
		return 0
	}
	return r.Run(bench, cfg).IPC / base
}

// WarmBaselines computes all baselines in parallel so subsequent figure
// loops don't serialize on them.
func (r *Runner) WarmBaselines() {
	benches := r.Opt.benches()
	r.parallelFor(len(benches), func(i int) {
		r.Baseline(benches[i])
	})
}

// workerCount resolves Options.Parallelism to an actual worker count,
// implementing the contract documented on the field: <= 0 maps to
// GOMAXPROCS, positive values pass through.
func (r *Runner) workerCount() int {
	if r.Opt.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Opt.Parallelism
}

// parallelFor runs fn(0..n-1) across a bounded worker pool.
func (r *Runner) parallelFor(n int, fn func(i int)) {
	parallelDo(r.workerCount(), n, fn)
}

// parallelDo runs fn(0..n-1) on up to workers goroutines. Which worker runs
// which index is scheduler-dependent; callers must write results into
// per-index slots so the outcome is independent of the assignment (every
// campaign fan-out does).
func parallelDo(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// --- configuration constructors for the paper's schemes --------------------

// EncOnly returns an encryption-only machine (no authentication), as used
// by Figure 4, Table 2, and Figure 5.
func EncOnly(mode config.EncryptionMode, monoBits int) config.SystemConfig {
	cfg := config.Default()
	cfg.Enc = mode
	cfg.MonoCounterBits = monoBits
	cfg.Auth = config.AuthNone
	cfg.AuthenticateCounters = false
	return cfg
}

// AuthOnly returns an authentication-only machine (no encryption), as used
// by Figures 7 and 8. GCM still maintains counters, per Section 6.2.
func AuthOnly(auth config.AuthMode, shaLatency uint64, req config.AuthReq, parallel bool) config.SystemConfig {
	cfg := config.Default()
	cfg.Enc = config.EncNone
	cfg.Auth = auth
	cfg.SHA1Latency = shaLatency
	cfg.Req = req
	cfg.ParallelAuth = parallel
	cfg.AuthenticateCounters = auth == config.AuthGCM
	return cfg
}

// Combined returns one of Figure 9's five protection combinations by name:
// "Split+GCM", "Mono+GCM", "Split+SHA", "Mono+SHA", "XOM+SHA".
func Combined(name string) config.SystemConfig {
	cfg := config.Default()
	switch name {
	case "Split+GCM":
		cfg.Enc = config.EncCounterSplit
		cfg.Auth = config.AuthGCM
	case "Mono+GCM":
		cfg.Enc = config.EncCounterMono
		cfg.MonoCounterBits = 64
		cfg.Auth = config.AuthGCM
	case "Split+SHA":
		cfg.Enc = config.EncCounterSplit
		cfg.Auth = config.AuthSHA1
	case "Mono+SHA":
		cfg.Enc = config.EncCounterMono
		cfg.MonoCounterBits = 64
		cfg.Auth = config.AuthSHA1
	case "XOM+SHA":
		cfg.Enc = config.EncDirect
		cfg.Auth = config.AuthSHA1
		cfg.AuthenticateCounters = false
	default:
		panic("harness: unknown combined scheme " + name)
	}
	return cfg
}

// CombinedNames lists Figure 9's schemes in plot order.
func CombinedNames() []string {
	return []string{"Split+GCM", "Mono+GCM", "Split+SHA", "Mono+SHA", "XOM+SHA"}
}

// WithCounterCache resizes the counter cache (Figure 5).
func WithCounterCache(cfg config.SystemConfig, sizeBytes int) config.SystemConfig {
	cc := cfg.CounterCache
	cc.SizeBytes = sizeBytes
	cfg.CounterCache = cc
	return cfg
}

// RunPredictor simulates the counter-prediction baseline for Figure 6.
func (r *Runner) RunPredictor(bench string, engines int) (cpu.Result, predictor.Stats) {
	sys := config.Baseline()
	pcfg := predictor.DefaultConfig(sys, engines)
	p, err := predictor.New(pcfg)
	if err != nil {
		panic(err)
	}
	gen := trace.NewGenerator(trace.Get(bench), r.Opt.Seed)
	c := cpu.New(sys, p)
	res := c.Run(gen, r.Opt.Instructions)
	return res, p.Stats
}

// MetricDelta is one benchmark's observability difference between a
// protected run and the unprotected baseline: counters are protected minus
// baseline; gauges are the protected run's end-of-run values.
type MetricDelta struct {
	Bench    string             `json:"bench"`
	Scheme   string             `json:"scheme"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// MetricDeltas runs every benchmark in the campaign twice — unprotected
// baseline and cfg — each with its own registry (registries are not safe
// for concurrent use, so runs never share one), and returns per-benchmark
// counter deltas in campaign order.
func (r *Runner) MetricDeltas(cfg config.SystemConfig) []MetricDelta {
	benches := r.Opt.benches()
	out := make([]MetricDelta, len(benches))
	r.parallelFor(len(benches), func(i int) {
		b := benches[i]
		base := obsv.NewRegistry()
		prot := obsv.NewRegistry()
		r.RunObserved(b, config.Baseline(), Obs{Reg: base})
		r.RunObserved(b, cfg, Obs{Reg: prot})
		bs, ps := base.Snapshot(), prot.Snapshot()
		d := MetricDelta{
			Bench:    b,
			Scheme:   cfg.SchemeName(),
			Counters: make(map[string]int64, len(ps.Counters)),
			Gauges:   ps.Gauges,
		}
		for name, v := range ps.Counters {
			d.Counters[name] = int64(v) - int64(bs.Counters[name])
		}
		for name, v := range bs.Counters {
			if _, ok := ps.Counters[name]; !ok {
				d.Counters[name] = -int64(v)
			}
		}
		out[i] = d
	})
	return out
}
