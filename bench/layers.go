package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"secmem/internal/aescipher"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/gcmmode"
	"secmem/internal/gf128"
	"secmem/internal/sim"
)

// sampleEvery is the traced reps' sampling period. A clock pair costs about
// 100 ns, so timing every call would dominate a cache-resident run (it made
// resident 3.6x slower); three clock reads per 64 calls add about 2 ns per
// call.
const sampleEvery = 64

// clock returns monotonic nanoseconds. Tests substitute a fake.
type clock func() int64

func monotonic() clock {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// calibrateBias returns the median duration of n back-to-back empty spans,
// the host's clock cost as every report records it.
func calibrateBias(now clock, n int) int64 {
	d := make([]int64, n)
	for i := range d {
		t0 := now()
		d[i] = now() - t0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}

// groups is the number of round-robin sample groups an estimator keeps.
const groups = 16

// estimator folds the sampled durations of one class of calls. Every call
// is counted; only sampled calls contribute time, so the class total is the
// per-call estimate scaled by calls over samples.
//
// The per-call estimate is a median of means: samples go round-robin into
// 16 groups, and the median group mean is the estimate. A plain mean is at
// the mercy of one descheduled span: on chase a single 0.75 ms sample,
// scaled by 64, once put the miss path above 100% of the rep's wall time.
// The median of means ignores such a rare outlier while a tail common
// enough to reach most groups still counts.
type estimator struct {
	Calls   uint64         `json:"calls"`
	Samples uint64         `json:"samples"`
	Ns      [groups]int64  `json:"ns"`      // bias-corrected sampled time per group
	N       [groups]uint64 `json:"n"`       // samples per group
	Bias    int64          `json:"bias_ns"` // total clock bias subtracted
}

// add records one sampled span of d raw nanoseconds, less the clock bias,
// clamped at zero. The wrappers measure the bias in place: an empty span
// taken right before the call, in the same cache state. Measured so, it
// runs about 50 ns on miss-heavy workloads against 35 ns for back-to-back
// reads at start-up; the start-up figure left every span of functional
// 15 ns long, and the CPU loop's residual share below zero.
func (e *estimator) add(d, bias int64) {
	e.Bias += bias
	d -= bias
	if d < 0 {
		d = 0
	}
	g := e.Samples % groups
	e.Samples++
	e.Ns[g] += d
	e.N[g]++
}

func (e estimator) perCall() float64 {
	var means []float64
	for g, n := range e.N {
		if n > 0 {
			means = append(means, float64(e.Ns[g])/float64(n))
		}
	}
	if len(means) == 0 {
		return 0
	}
	return median(sorted(means))
}

func (e estimator) total() float64 { return e.perCall() * float64(e.Calls) }

// merge folds o in group by group; o's groups continue e's round-robin.
func (e *estimator) merge(o estimator) {
	for g := range o.N {
		h := (e.Samples + uint64(g)) % groups
		e.Ns[h] += o.Ns[g]
		e.N[h] += o.N[g]
	}
	e.Calls += o.Calls
	e.Samples += o.Samples
	e.Bias += o.Bias
}

// timedSource wraps the trace generator's Next, the trace layer.
type timedSource struct {
	src cpu.Source
	now clock
	est estimator
}

func (s *timedSource) Next() (cpu.Event, bool) {
	s.est.Calls++
	if s.est.Calls%sampleEvery != 0 {
		return s.src.Next()
	}
	t0 := s.now()
	t1 := s.now()
	ev, ok := s.src.Next()
	s.est.add(s.now()-t1, t1-t0)
	return ev, ok
}

// accessClass is where an access was served, read off its AccessResult.
type accessClass int

const (
	l1Hit accessClass = iota
	l2Hit
	l2Miss
	numClasses
)

// classify: an L2 miss is flagged by the memory system; an L1 hit returns
// exactly the L1 latency after issue; anything else hit in L2.
func classify(now sim.Time, r core.AccessResult, l1Latency sim.Time) accessClass {
	switch {
	case r.L2Miss:
		return l2Miss
	case r.DataReady-now == l1Latency:
		return l1Hit
	default:
		return l2Hit
	}
}

// timedMemory wraps Memory.Access: L1/L2 hits are the cache layer, L2
// misses the controller below it (counters, pads, Merkle tree, bus).
type timedMemory struct {
	mem   cpu.Memory
	now   clock
	l1Lat sim.Time
	calls uint64
	est   [numClasses]estimator
}

func (m *timedMemory) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	m.calls++
	if m.calls%sampleEvery != 0 {
		r := m.mem.Access(now, addr, write)
		m.est[classify(now, r, m.l1Lat)].Calls++
		return r
	}
	t0 := m.now()
	t1 := m.now()
	r := m.mem.Access(now, addr, write)
	t2 := m.now()
	e := &m.est[classify(now, r, m.l1Lat)]
	e.Calls++
	e.add(t2-t1, t1-t0)
	return r
}

// layerTimes is the host-time split of a traced pass.
type layerTimes struct {
	WallNs int64                 `json:"wall_ns"`
	Trace  estimator             `json:"trace"`
	Mem    [numClasses]estimator `json:"mem"`
}

func (l *layerTimes) fold(s *timedSource, m *timedMemory) {
	l.Trace.merge(s.est)
	for i := range l.Mem {
		l.Mem[i].merge(m.est[i])
	}
}

// simCounts sums the simulated statistics the per-layer rates are built
// from, across every machine of a pass.
type simCounts struct {
	Instr, Cycles, Loads, Stores, L2Misses uint64
	Fills, WriteBacks, MacFetches          uint64
	PadReads, TimelyPads                   uint64
	L1Acc, L1Miss, L2Acc, L2MissAll        uint64
	CtrHits, CtrHalf, CtrMisses            uint64
	BusBusy, BusWait                       uint64
}

func (c *simCounts) add(res cpu.Result, mem *core.MemSystem) {
	ctl := mem.Controller()
	c.Instr += res.Instructions
	c.Cycles += res.Cycles
	c.Loads += res.Loads
	c.Stores += res.Stores
	c.L2Misses += res.L2Misses
	c.Fills += ctl.Stats.Fills
	c.WriteBacks += ctl.Stats.WriteBacks
	c.MacFetches += ctl.Stats.MacFetches
	c.PadReads += ctl.Stats.PadReads
	c.TimelyPads += ctl.Stats.TimelyPads
	c.L1Acc += mem.L1().Stats.Accesses()
	c.L1Miss += mem.L1().Stats.Misses()
	c.L2Acc += mem.L2().Stats.Accesses()
	c.L2MissAll += mem.L2().Stats.Misses()
	if ctrs := ctl.Counters(); ctrs != nil {
		c.CtrHits += ctrs.Stats.Hits
		c.CtrHalf += ctrs.Stats.HalfMisses
		c.CtrMisses += ctrs.Stats.Misses
	}
	c.BusBusy += ctl.Bus().BusyCycles()
	c.BusWait += ctl.Bus().QueueDelay()
}

// ratio returns a/b, or def when b is zero (a rate over no events).
func ratio(a, b, def float64) float64 {
	if b == 0 {
		return def
	}
	return a / b
}

// layerMetrics turns a traced pass into the trace/cpu/cache/core/
// counterstore/bus rows of perLayer.
func layerMetrics(l layerTimes, c simCounts) map[string]float64 {
	wall := float64(l.WallNs)
	tr := l.Trace.total()
	l1, l2, miss := l.Mem[l1Hit].total(), l.Mem[l2Hit].total(), l.Mem[l2Miss].total()
	self := wall - tr - l1 - l2 - miss
	events := float64(l.Trace.Calls)
	kinstr := float64(c.Instr) / 1000
	ctrAll := float64(c.CtrHits + c.CtrHalf + c.CtrMisses)
	var bias, samples float64
	for _, e := range append([]estimator{l.Trace}, l.Mem[:]...) {
		bias += float64(e.Bias)
		samples += float64(e.Samples)
	}
	return map[string]float64{
		"trace.next_ns":                l.Trace.perCall(),
		"trace.share":                  ratio(tr, wall, 0),
		"cpu.self_share":               ratio(self, wall, 0),
		"cpu.self_ns_per_event":        ratio(self, events, 0),
		"cpu.events_per_kinstr":        ratio(float64(c.Loads+c.Stores), kinstr, 0),
		"cpu.ipc":                      ratio(float64(c.Instr), float64(c.Cycles), 0),
		"cache.l1_hit_ns":              l.Mem[l1Hit].perCall(),
		"cache.l2_hit_ns":              l.Mem[l2Hit].perCall(),
		"cache.hit_share":              ratio(l1+l2, wall, 0),
		"cache.l1_hit_rate":            ratio(float64(c.L1Acc-c.L1Miss), float64(c.L1Acc), 1),
		"cache.l2_hit_rate":            ratio(float64(c.L2Acc-c.L2MissAll), float64(c.L2Acc), 1),
		"core.miss_ns":                 l.Mem[l2Miss].perCall(),
		"core.miss_share":              ratio(miss, wall, 0),
		"core.misses_per_kinstr":       ratio(float64(c.L2Misses), kinstr, 0),
		"core.writebacks_per_kinstr":   ratio(float64(c.WriteBacks), kinstr, 0),
		"core.merkle_fetches_per_fill": ratio(float64(c.MacFetches), float64(c.Fills), 0),
		"core.timely_pad_rate":         ratio(float64(c.TimelyPads), float64(c.PadReads), 1),
		"counterstore.hit_rate":        ratio(float64(c.CtrHits), ctrAll, 1),
		"counterstore.half_miss_rate":  ratio(float64(c.CtrHalf), ctrAll, 0),
		"bus.busy_frac":                ratio(float64(c.BusBusy), float64(c.Cycles), 0),
		"bus.wait_cycles_per_fill":     ratio(float64(c.BusWait), float64(c.Fills), 0),
		"bench.clock_bias_ns":          ratio(bias, samples, 0),
	}
}

// kernelMetrics times the public crypto kernels the functional layer runs
// on every fill and write-back, spending about d on each. Each figure is
// the median per-call time over batches, so a preempted batch does not
// move it.
func kernelMetrics(seed int64, d time.Duration) map[string]float64 {
	blk := aescipher.MustNew(seeded(seed, "key", 16))
	pads := gcmmode.NewPadGen(blk, 0, 1)
	tbl := gf128.NewProductTable8(gf128.FromBytes(seeded(seed, "h", 16)))
	kb := seeded(seed, "ghash", 1024)
	src := seeded(seed, "block", gcmmode.MemBlockSize)
	dst := make([]byte, gcmmode.MemBlockSize)

	var in, out [16]byte
	return map[string]float64{
		"aescipher.block_ns": perCallNs(d, func(i int) {
			blk.Encrypt(out[:], in[:])
			in = out
		}),
		"gf128.ghash_kb_ns": perCallNs(d, func(i int) {
			sum := gf128.GHASHTable8(&tbl, nil, kb)
			copy(kb, sum[:]) // chain calls so none can be elided
		}),
		"gcmmode.encrypt_block_ns": perCallNs(d, func(i int) {
			pads.EncryptBlock(dst, src, uint64(i)<<6, 1)
		}),
		"gcmmode.mac64_ns": perCallNs(d, func(i int) {
			tag, _ := pads.MAC(src, uint64(i)<<6, 1, 64)
			copy(dst, tag[:])
		}),
	}
}

// seeded returns n bytes derived from seed and label.
func seeded(seed int64, label string, n int) []byte {
	var out []byte
	for i := 0; len(out) < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", label, seed, i)))
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// perCallNs runs op in batches until d has elapsed and returns the median
// per-call time of the batches.
func perCallNs(d time.Duration, op func(i int)) float64 {
	const batch = 256
	var per []float64
	start := time.Now()
	for i := 0; len(per) < 3 || time.Since(start) < d; {
		t0 := time.Now()
		for end := i + batch; i < end; i++ {
			op(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(sorted(per))
}
