package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/harness"
	"secmem/internal/stats"
	"secmem/internal/trace"
)

// workload is one input set the benchmark runs. Single-run budgets are
// sized so one rep takes about a second on a 2-core x86 host: a run then
// fits many timed reps into its measuring window, and their median is
// steady. A campaign rep takes about 3.5 s there.
type workload struct {
	name string
	why  string
	// profile is the trace profile a single-run workload simulates on
	// config.Default(); empty for the campaign.
	profile    string
	functional bool
	// macCacheBytes, when nonzero, gives Merkle nodes a dedicated cache of
	// this size instead of the shared L2 (config.SystemConfig.MacCacheBytes).
	macCacheBytes int
	// budget is simulated instructions per rep, or per simulation run for
	// the campaign.
	budget uint64
	// benches are the campaign's harness.Options.Benches.
	benches []string
}

var workloads = []workload{
	{
		name:    "resident",
		why:     "crafty fits in L2: host time is trace, CPU loop and L1/L2 lookup; the secure controller is almost idle",
		profile: "crafty",
		budget:  16_000_000,
	},
	{
		name:    "chase",
		why:     "mcf chases pointers over 160 MB: ~140 L2 misses/kinstr put counters, Merkle tree and bus on the host hot path",
		profile: "mcf",
		budget:  2_000_000,
	},
	// The functional machine keeps Merkle nodes in a dedicated 64 KB cache.
	// With nodes in the shared L2, about one seed in twenty reports a false
	// tamper: a node fill during a counter block's authentication evicts a
	// dirty data block whose write-back bumps a counter in that block, and
	// the block's memory image, unpacked after the authentication, rolls
	// the counter back. A dedicated cache's victims only queue, so no
	// write-back runs inside the fill. README.md has the details.
	{
		name:          "functional",
		why:           "swim with real AES pads, GHASH MACs and tree updates on every fill and write-back; Merkle nodes in a 64 KB MAC cache",
		profile:       "swim",
		functional:    true,
		macCacheBytes: 64 << 10,
		budget:        4_000_000,
	},
	// The campaign runs at harness.DefaultOptions' 2M instructions per run.
	// Every run starts from empty caches, so a short run is mostly
	// compulsory misses: over all 21 benches and 17 machines, 100k per run
	// gave 74 L2 misses/kinstr and a 35% miss-path share of host time,
	// against 16 and 19% at paperbench's 4M; 2M gave 17 and 19%. All 21
	// benches at 2M take about 25 s a rep on two cores, so the campaign
	// keeps three whose pooled split of host time (miss path, hit path,
	// trace) and misses/kinstr are within 2.2% of the 21 benches' at 2M.
	// README.md has the measurements.
	{
		name:    "campaign",
		why:     "Fig4+Fig7+Fig9 at 2M instr/run on swim, twolf, wupwise: harness fan-out, every scheme, machine set-up",
		budget:  2_000_000,
		benches: []string{"swim", "twolf", "wupwise"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config() config.SystemConfig {
	cfg := config.Default()
	cfg.Functional = w.functional
	cfg.MacCacheBytes = w.macCacheBytes
	return cfg
}

// campaignConfigs are the distinct machines the campaign's figures build:
// the unprotected baseline, Figure 4's six encryption schemes, Figure 7's
// GCM and four SHA-1 latencies, and Figure 9's five combinations. Set-up
// constructs them and the traced pass runs them; a test keeps the list in
// step with the schemes the figures return.
func campaignConfigs() []config.SystemConfig {
	cfgs := []config.SystemConfig{config.Baseline(), harness.EncOnly(config.EncCounterSplit, 64)}
	for _, bits := range []int{8, 16, 32, 64} {
		cfgs = append(cfgs, harness.EncOnly(config.EncCounterMono, bits))
	}
	cfgs = append(cfgs, harness.EncOnly(config.EncDirect, 64),
		harness.AuthOnly(config.AuthGCM, 320, config.AuthCommit, true))
	for _, lat := range harness.Fig7Latencies {
		cfgs = append(cfgs, harness.AuthOnly(config.AuthSHA1, lat, config.AuthCommit, true))
	}
	for _, name := range harness.CombinedNames() {
		cfgs = append(cfgs, harness.Combined(name))
	}
	return cfgs
}

// figureRuns is the number of simulations behind a figure's data: one per
// scheme and bench, the "Avg" column aside.
func figureRuns(data harness.FigData) int {
	n := 0
	for _, benches := range data {
		for b := range benches {
			if b != "Avg" {
				n++
			}
		}
	}
	return n
}

// runOpts is how one workload run is carried out.
type runOpts struct {
	seed int64
	// Timed reps continue until seconds have passed and at least minReps
	// have run.
	seconds float64
	minReps int
	warmup  int
	traced  bool
	budget  uint64 // 0 selects the workload's own
	setupN  int
	kernelD time.Duration // time spent on each crypto kernel
	// ref is the expected fingerprint; empty looks one up in reference.json.
	ref string
	// wrap, when set, interposes on the memory system of every single-run
	// rep. Tests use it to perturb or slow the simulated machine.
	wrap func(cpu.Memory) cpu.Memory
}

func defaultOpts(seed int64, seconds float64, traced bool) runOpts {
	return runOpts{
		seed:    seed,
		seconds: seconds,
		minReps: 3,
		warmup:  1,
		traced:  traced,
		setupN:  201,
		kernelD: 100 * time.Millisecond,
	}
}

// hostInfo is recorded in every output so figures from different hosts are
// never compared unknowingly.
type hostInfo struct {
	Nproc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	ClockBiasNs float64 `json:"clock_bias_ns"`
}

// span is one coarse interval of the run, in nanoseconds since its start;
// spans nest by containment (workload > setup, rep > run or figure).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// report is everything one workload run measured.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Budget      uint64                 `json:"budget"`
	Warmup      int                    `json:"warmup_reps"`
	Reps        int                    `json:"timed_reps"`
	Traced      bool                   `json:"traced"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Reference   string                 `json:"reference"`
	Fingerprint string                 `json:"fingerprint"`
	Host        hostInfo               `json:"host"`
	Samples     map[string][]float64   `json:"samples"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Spans       []span                 `json:"spans"`
}

//go:embed reference.json
var referenceJSON []byte

// lookupReference returns the pinned fingerprint of a workload at a budget
// and seed, or "" when none is pinned.
func lookupReference(w string, budget uint64, seed int64) (string, error) {
	var ref map[string]struct {
		Budget uint64            `json:"budget"`
		Seeds  map[string]string `json:"seeds"`
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return "", fmt.Errorf("reference.json: %w", err)
	}
	e, ok := ref[w]
	if !ok || e.Budget != budget {
		return "", nil
	}
	return e.Seeds[strconv.FormatInt(seed, 10)], nil
}

// runner carries one workload run.
type runner struct {
	w      workload
	o      runOpts
	now    clock
	anchor string // the first rep's fingerprint; every later rep must match it
	rep    *report
}

// repOut is one rep's outcome.
type repOut struct {
	wall  time.Duration
	instr uint64
	fp    string
	err   error
	figs  [3]time.Duration // campaign: Fig4, Fig7, Fig9
}

func newRunner(w workload, o runOpts) (*runner, error) {
	if o.budget == 0 {
		o.budget = w.budget
	}
	if o.ref == "" {
		ref, err := lookupReference(w.name, o.budget, o.seed)
		if err != nil {
			return nil, err
		}
		o.ref = ref
	}
	r := &runner{w: w, o: o, now: monotonic()}
	r.rep = &report{
		Workload:  w.name,
		Seed:      o.seed,
		Budget:    o.budget,
		Warmup:    o.warmup,
		Traced:    o.traced,
		Reference: "none (determinism-only)",
		Host: hostInfo{
			Nproc:       runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			ClockBiasNs: float64(calibrateBias(r.now, 10_000)),
		},
		EndToEnd: map[string]metricValue{},
	}
	if o.ref != "" {
		r.rep.Reference = o.ref
	}
	return r, nil
}

// run measures workload w: set-up, warm-up, timed reps for o.seconds, and
// with o.traced the traced reps under the sampled layer timers.
func run(w workload, o runOpts) (*report, error) {
	r, err := newRunner(w, o)
	if err != nil {
		return nil, err
	}
	o = r.o
	t0 := r.now()

	setup := make([]float64, o.setupN)
	s0 := r.now()
	for i := range setup {
		// Collecting first keeps one construction's garbage from landing
		// in the next one's time, and the garbage of 201 of them from
		// setting the process's peak RSS.
		runtime.GC()
		c0 := time.Now()
		if err := r.construct(); err != nil {
			return nil, err
		}
		setup[i] = time.Since(c0).Seconds()
	}
	r.span("setup", s0)

	for i := 0; i < o.warmup; i++ {
		r.check(r.oneRep())
	}

	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	var wallS, rate, allocMB, gcCycles []float64
	var figShares [3][]float64
	var gcCPU, gcAfter float64
	cpu0 := processCPU()
	start := time.Now()
	for i := 0; i < o.minReps || time.Since(start).Seconds() < o.seconds; i++ {
		// Each rep starts from a collected heap, so garbage from the last
		// one is not charged to it; the forced collection's own CPU is
		// left out of the GC share.
		metrics.Read(m[:1])
		if i > 0 {
			gcCPU += m[0].Value.Float64() - gcAfter
		}
		runtime.GC()
		metrics.Read(m)
		gcAfter = m[0].Value.Float64()
		alloc0, gc0 := m[1].Value.Uint64(), m[2].Value.Uint64()
		out := r.oneRep()
		metrics.Read(m)
		r.check(out)
		r.rep.Reps++
		if out.err != nil {
			continue // a rep that did not finish has no time to report
		}
		wallS = append(wallS, out.wall.Seconds())
		rate = append(rate, float64(out.instr)/out.wall.Seconds()/1e6)
		allocMB = append(allocMB, float64(m[1].Value.Uint64()-alloc0)/1e6)
		gcCycles = append(gcCycles, float64(m[2].Value.Uint64()-gc0))
		for f, d := range out.figs {
			figShares[f] = append(figShares[f], d.Seconds()/out.wall.Seconds())
		}
	}
	loopWall := time.Since(start).Seconds()
	busy := processCPU() - cpu0
	metrics.Read(m[:1])
	gcCPU += m[0].Value.Float64() - gcAfter

	r.rep.Samples = map[string][]float64{
		"wall_s":           wallS,
		"sim_minstr_per_s": rate,
		"setup_s":          setup,
		"max_rss_mb":       {peakRSSMB()},
	}
	for _, d := range endToEnd {
		r.rep.EndToEnd[d.Name] = summarize(d.Unit, r.rep.Samples[d.Name])
	}

	if o.traced {
		layer := r.tracedPass()
		layer["runtime.gc_cycles"] = median(sorted(gcCycles))
		layer["runtime.gc_cpu_frac"] = ratio(gcCPU, busy, 0)
		layer["runtime.alloc_mb"] = median(sorted(allocMB))
		layer["runtime.cpu_util"] = busy / (loopWall * float64(runtime.GOMAXPROCS(0)))
		for f, name := range []string{"harness.fig4_share", "harness.fig7_share", "harness.fig9_share"} {
			layer[name] = median(sorted(figShares[f]))
		}
		r.rep.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			v := layer[d.Name]
			r.rep.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit, Min: v, Max: v, N: 1}
		}
	}
	r.span("workload "+w.name, t0)
	r.rep.Fingerprint = r.anchor
	return r.rep, nil
}

func (r *runner) span(name string, start int64) {
	r.rep.Spans = append(r.rep.Spans, span{Name: name, Start: start, Dur: r.now() - start})
}

// check counts a rep as attempted, and as failed if it went wrong or its
// simulated statistics differ from the first rep's or from the pinned
// reference.
func (r *runner) check(out repOut) {
	err := out.err
	if err == nil {
		if r.anchor == "" {
			r.anchor = out.fp
		} else if out.fp != r.anchor {
			err = fmt.Errorf("fingerprint %.12s differs from the first rep's %.12s", out.fp, r.anchor)
		}
	}
	if err == nil && r.o.ref != "" && out.fp != r.o.ref {
		err = fmt.Errorf("fingerprint %.12s differs from reference.json's %.12s", out.fp, r.o.ref)
	}
	r.note(err)
}

// note counts one attempted rep, failed when err is non-nil.
func (r *runner) note(err error) {
	r.rep.Attempted++
	if err == nil {
		return
	}
	r.rep.Failed++
	if len(r.rep.Failures) < 5 {
		r.rep.Failures = append(r.rep.Failures, err.Error())
	}
}

func (r *runner) oneRep() repOut {
	t0 := r.now()
	defer r.span("rep", t0)
	if r.w.profile == "" {
		return r.campaignRep()
	}
	return r.simulate(r.w.config(), r.w.profile, nil, nil)
}

// construct builds, and drops, the machines one rep starts from.
func (r *runner) construct() error {
	if r.w.profile != "" {
		return newMachine(r.w.config(), r.w.profile, r.o.seed)
	}
	harness.New(r.campaignOptions())
	for i, cfg := range campaignConfigs() {
		if err := newMachine(cfg, r.w.benches[i%len(r.w.benches)], r.o.seed); err != nil {
			return err
		}
	}
	return nil
}

// newMachine is the set-up a simulation pays before its first instruction.
func newMachine(cfg config.SystemConfig, profile string, seed int64) error {
	mem, err := core.NewMemSystem(cfg)
	if err != nil {
		return err
	}
	cpu.New(cfg, mem)
	trace.NewGenerator(trace.Get(profile), seed)
	return nil
}

// simulate builds one machine from empty caches and runs the budget on it.
// With lt non-nil, the trace and memory layers run under the sampled timers
// and their split folds into lt; sc, when non-nil, sums the machine's
// simulated statistics.
func (r *runner) simulate(cfg config.SystemConfig, profile string, lt *layerTimes, sc *simCounts) (out repOut) {
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("panic: %v", p)
		}
	}()
	mem, err := core.NewMemSystem(cfg)
	if err != nil {
		out.err = err
		return out
	}
	var m cpu.Memory = mem
	if r.o.wrap != nil {
		m = r.o.wrap(m)
	}
	var src cpu.Source = trace.NewGenerator(trace.Get(profile), r.o.seed)
	var ts *timedSource
	var tm *timedMemory
	if lt != nil {
		ts = &timedSource{src: src, now: r.now}
		tm = &timedMemory{mem: m, now: r.now, l1Lat: cfg.L1.LatencyCycles}
		src, m = ts, tm
	}
	c := cpu.New(cfg, m)
	t0 := r.now()
	start := time.Now()
	res := c.Run(src, r.o.budget)
	out.wall = time.Since(start)
	r.span("run "+profile, t0)
	if lt != nil {
		lt.fold(ts, tm)
		lt.WallNs += out.wall.Nanoseconds()
	}
	if sc != nil {
		sc.add(res, mem)
	}
	out.instr = res.Instructions
	out.fp = fingerprint(res, mem)
	switch {
	case res.Instructions != r.o.budget:
		out.err = fmt.Errorf("ran %d instructions, want %d", res.Instructions, r.o.budget)
	case mem.Controller().Stats.TamperDetected > 0:
		out.err = fmt.Errorf("%d tamper detections on an honest run", mem.Controller().Stats.TamperDetected)
	}
	return out
}

func (r *runner) campaignOptions() harness.Options {
	return harness.Options{Instructions: r.o.budget, Seed: r.o.seed, Benches: r.w.benches}
}

// campaignRep regenerates Figures 4, 7 and 9 through the harness, as
// paperbench does; its fingerprint covers the three rendered tables. The
// instruction count is the budget times the runs the figures report, plus
// the one baseline run per bench they normalize to.
func (r *runner) campaignRep() (out repOut) {
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("panic: %v", p)
		}
	}()
	h := harness.New(r.campaignOptions())
	figs := []struct {
		name string
		fn   func() (stats.Table, harness.FigData)
	}{{"Fig4", h.Fig4}, {"Fig7", h.Fig7}, {"Fig9", h.Fig9}}
	sum := sha256.New()
	runs := len(r.w.benches)
	start := time.Now()
	for i, f := range figs {
		t0 := r.now()
		f0 := time.Now()
		tbl, data := f.fn()
		out.figs[i] = time.Since(f0)
		r.span(f.name, t0)
		fmt.Fprint(sum, tbl.String())
		runs += figureRuns(data)
	}
	out.wall = time.Since(start)
	out.err = h.Err()
	out.instr = uint64(runs) * r.o.budget
	out.fp = hex.EncodeToString(sum.Sum(nil))
	return out
}

// tracedReps is how many traced reps the per-layer split is measured over.
const tracedReps = 3

// tracedPass is the per-layer measurement: tracedReps paired passes, their
// layer estimates pooled. The trace overhead is the median over the pairs
// of traced / bare wall time - 1; against the untraced median taken earlier
// in the run, host drift alone moved it between -10% and +22%.
func (r *runner) tracedPass() map[string]float64 {
	var lt layerTimes
	var sc simCounts
	var overhead []float64
	for i := 0; i < tracedReps; i++ {
		t0 := r.now()
		bare, traced := r.pairedPass(i, &lt, &sc)
		overhead = append(overhead, traced/bare-1)
		r.span("traced rep", t0)
	}
	layer := layerMetrics(lt, sc)
	for k, v := range kernelMetrics(r.o.seed, r.o.kernelD) {
		layer[k] = v
	}
	layer["bench.trace_overhead"] = median(sorted(overhead))
	return layer
}

// pairedPass runs pass i's machines once bare and once traced, back to
// back, and returns the two wall times in seconds. For a single-run
// workload that is one rep of each kind, both checked like any rep. The
// campaign's simulations happen inside the harness, out of the timers'
// reach, so its pass runs every campaign machine at the campaign's budget,
// serially, each on one of the campaign's benches; the bench rotates with
// i, so over tracedReps passes on three benches every machine runs on every
// bench once, as in a campaign rep. The pass counts as one rep that fails
// if a traced run's fingerprint differs from its bare twin's.
func (r *runner) pairedPass(i int, lt *layerTimes, sc *simCounts) (bare, traced float64) {
	if r.w.profile != "" {
		runtime.GC()
		plain := r.simulate(r.w.config(), r.w.profile, nil, nil)
		r.check(plain)
		runtime.GC()
		timed := r.simulate(r.w.config(), r.w.profile, lt, sc)
		r.check(timed)
		return plain.wall.Seconds(), timed.wall.Seconds()
	}
	var err error
	for j, cfg := range campaignConfigs() {
		b := r.w.benches[(i+j)%len(r.w.benches)]
		plain := r.simulate(cfg, b, nil, nil)
		timed := r.simulate(cfg, b, lt, sc)
		bare += plain.wall.Seconds()
		traced += timed.wall.Seconds()
		for _, e := range []error{plain.err, timed.err} {
			if err == nil && e != nil {
				err = fmt.Errorf("%s: %w", b, e)
			}
		}
		if err == nil && plain.fp != timed.fp {
			err = fmt.Errorf("%s: traced fingerprint %.12s differs from the bare run's %.12s", b, timed.fp, plain.fp)
		}
	}
	r.note(err)
	return bare, traced
}

// fingerprint hashes a finished machine's simulated statistics.
func fingerprint(res cpu.Result, mem *core.MemSystem) string {
	h := sha256.New()
	ctl := mem.Controller()
	writeAll(h, res, ctl.Stats, mem.L1().Stats, mem.L2().Stats)
	if ctrs := ctl.Counters(); ctrs != nil {
		writeAll(h, ctrs.Stats, ctrs.Cache().Stats)
	}
	if mc := ctl.MacCache(); mc != nil {
		writeAll(h, mc.Stats)
	}
	writeAll(h, ctl.Bus().BusyCycles(), ctl.Bus().QueueDelay())
	return hex.EncodeToString(h.Sum(nil))
}

func writeAll(h hash.Hash, vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is this process's own peak resident set size, VmHWM. getrusage's
// ru_maxrss will not do: Linux carries it across fork and exec, so it
// reports the launching process's peak whenever that one is larger.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			if err != nil {
				return 0
			}
			return v / 1024
		}
	}
	return 0
}
