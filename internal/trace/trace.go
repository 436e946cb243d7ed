// Package trace generates the synthetic workloads that stand in for the 21
// SPEC CPU 2000 benchmarks of the paper's evaluation (Table 1). Running the
// actual benchmarks requires their reference inputs and a compiler
// toolchain; what the paper's results actually depend on is each program's
// memory behaviour along three axes:
//
//   - L2 miss rate and footprint (drives exposure to decryption latency),
//   - write-back volume and concentration (drives counter growth, counter
//     cache pressure, and re-encryption frequency — Table 2), and
//   - load dependence (pointer chasing drives latency sensitivity).
//
// Each profile mixes four address generators — sequential streams, uniform
// random within a working set, pointer chasing (dependent loads), and a
// small hot write set — with per-benchmark weights and working-set sizes
// calibrated to public SPEC 2000 memory characterizations. Generation is
// deterministic for a given (profile, seed).
package trace

import (
	"math/rand"
	"sort"

	"secmem/internal/cpu"
)

// BlockSize is the cache block size assumed by the generators.
const BlockSize = 64

// chaseWindow is the pointer-chase neighbourhood size: hops mostly stay
// within it, so chase traffic exercises a handful of encryption pages at a
// time the way real linked structures allocated together do.
const chaseWindow = 64 << 10

// Region base offsets, chosen to spread the working sets across the
// 512 MB data space without overlap.
const (
	hotBase    = 1 << 20   // 1 MB
	chaseBase  = 32 << 20  // 32 MB (largest chase set: mcf's 160 MB)
	randomBase = 224 << 20 // 224 MB
	streamBase = 256 << 20 // 256 MB (largest stream set: swim's 192 MB)
)

// Profile describes one synthetic benchmark.
type Profile struct {
	Name string

	// MemFraction is the fraction of instructions that access memory.
	MemFraction float64
	// StoreFraction is the fraction of memory accesses that are stores.
	StoreFraction float64

	// Mix weights over the four generators (normalized internally).
	StreamWeight float64
	RandomWeight float64
	ChaseWeight  float64
	HotWeight    float64

	// Working-set sizes in bytes.
	StreamWS uint64
	RandomWS uint64
	ChaseWS  uint64
	HotWS    uint64

	// StreamStride is the byte stride of sequential accesses (smaller
	// stride = more hits per block = lower MPKI).
	StreamStride uint64

	// HotStoreBias is the extra probability that a hot-region access is a
	// store, concentrating write-backs on few blocks (fast counters).
	HotStoreBias float64
}

// Generator produces the instruction stream for one profile run. It
// implements cpu.Source.
type Generator struct {
	p        Profile
	rng      *rand.Rand
	cum      [4]float64 // cumulative weights: stream, random, chase, hot
	streams  [4]uint64  // stream cursors
	sIdx     int
	chasePo  uint64 // pointer-chase PRNG state
	chaseWin uint64 // current chase neighbourhood base
	gapMean  float64
}

// NewGenerator builds a deterministic generator for a profile and seed.
func NewGenerator(p Profile, seed int64) *Generator {
	total := p.StreamWeight + p.RandomWeight + p.ChaseWeight + p.HotWeight
	if total <= 0 {
		panic("trace: profile has no generator weights: " + p.Name)
	}
	if p.MemFraction <= 0 || p.MemFraction >= 1 {
		panic("trace: MemFraction out of (0,1): " + p.Name)
	}
	g := &Generator{
		p:   p,
		rng: rand.New(rand.NewSource(seed ^ int64(hashName(p.Name)))),
	}
	g.cum[0] = p.StreamWeight / total
	g.cum[1] = g.cum[0] + p.RandomWeight/total
	g.cum[2] = g.cum[1] + p.ChaseWeight/total
	g.cum[3] = 1
	for i := range g.streams {
		g.streams[i] = uint64(i) * (p.StreamWS / 4)
	}
	g.gapMean = (1 - p.MemFraction) / p.MemFraction
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next produces the next memory event. The stream never ends.
func (g *Generator) Next() (cpu.Event, bool) {
	var ev cpu.Event
	// Geometric gap of non-memory instructions around the configured mean.
	gap := g.rng.ExpFloat64() * g.gapMean
	if gap > 1000 {
		gap = 1000
	}
	ev.NonMemBefore = uint32(gap)

	u := g.rng.Float64()
	storeP := g.p.StoreFraction
	switch {
	case u < g.cum[0]: // stream
		s := &g.streams[g.sIdx]
		g.sIdx = (g.sIdx + 1) % len(g.streams)
		*s += g.p.StreamStride
		if *s >= g.p.StreamWS {
			*s = 0
		}
		ev.Addr = streamBase + *s
	case u < g.cum[1]: // random
		ev.Addr = randomBase + uint64(g.rng.Int63n(int64(g.p.RandomWS/BlockSize)))*BlockSize +
			uint64(g.rng.Intn(BlockSize))&^7
	case u < g.cum[2]: // pointer chase
		// Real pointer chasing has strong neighbourhood locality: most
		// hops land near the current node, with occasional long jumps to
		// another part of the structure. The neighbourhood keeps the
		// counter cache effective (one counter block covers a 4 KB page),
		// while the long jumps still thrash the L2 for big working sets.
		g.chasePo = g.chasePo*6364136223846793005 + 1442695040888963407
		win := uint64(chaseWindow)
		if g.p.ChaseWS < win {
			win = g.p.ChaseWS
		}
		if nw := g.p.ChaseWS / win; nw > 1 && g.chasePo>>32&0xff < 4 {
			// ~16%: long jump moves the neighbourhood.
			g.chaseWin = g.chasePo % nw * win
		}
		ev.Addr = chaseBase + g.chaseWin + g.chasePo>>16%(win/BlockSize)*BlockSize
		ev.Dependent = true
	default: // hot set
		ev.Addr = hotBase + uint64(g.rng.Int63n(int64(g.p.HotWS/BlockSize)))*BlockSize
		storeP += g.p.HotStoreBias
	}
	ev.Write = g.rng.Float64() < storeP
	return ev, true
}

// Profiles returns the 21 benchmark stand-ins, keyed as the paper names
// them. Working sets and mixes are calibrated so the memory-bound floating
// point codes (art, swim, applu, mgrid, equake, wupwise, ammp, apsi) show
// large encryption/authentication overheads, the pointer chasers (mcf,
// twolf, parser, vpr) are latency-sensitive, and the cache-resident integer
// codes (crafty, eon, gzip, perlbmk, mesa...) are nearly unaffected —
// matching which benchmarks the paper plots individually.
func Profiles() map[string]Profile {
	mb := func(n uint64) uint64 { return n << 20 }
	kb := func(n uint64) uint64 { return n << 10 }
	ps := []Profile{
		// SPECfp. The memory-bound codes stream working sets far beyond the
		// 1 MB L2 at an 8-byte stride (one miss per eight accesses), giving
		// MPKIs in the paper-era 10-40 range; their hot write sets are small
		// and store-biased, which is what makes their counters the fastest
		// growing (Table 2).
		{Name: "ammp", MemFraction: 0.30, StoreFraction: 0.25,
			StreamWeight: 0.08, RandomWeight: 0.75, ChaseWeight: 0.02, HotWeight: 0.15,
			StreamWS: mb(24), RandomWS: kb(256), ChaseWS: mb(8), HotWS: kb(96),
			StreamStride: 8, HotStoreBias: 0.30},
		{Name: "applu", MemFraction: 0.32, StoreFraction: 0.30,
			StreamWeight: 0.30, RandomWeight: 0.45, ChaseWeight: 0.05, HotWeight: 0.20,
			StreamWS: mb(128), RandomWS: kb(256), ChaseWS: kb(128), HotWS: kb(48),
			StreamStride: 8, HotStoreBias: 0.45},
		{Name: "apsi", MemFraction: 0.30, StoreFraction: 0.28,
			StreamWeight: 0.20, RandomWeight: 0.60, ChaseWeight: 0.05, HotWeight: 0.15,
			StreamWS: mb(16), RandomWS: kb(256), ChaseWS: kb(128), HotWS: kb(128),
			StreamStride: 8, HotStoreBias: 0.20},
		{Name: "art", MemFraction: 0.34, StoreFraction: 0.18,
			StreamWeight: 0.55, RandomWeight: 0.30, ChaseWeight: 0.0, HotWeight: 0.15,
			StreamWS: mb(4), RandomWS: kb(256), ChaseWS: kb(256), HotWS: kb(48),
			StreamStride: 8, HotStoreBias: 0.50},
		{Name: "equake", MemFraction: 0.31, StoreFraction: 0.24,
			StreamWeight: 0.15, RandomWeight: 0.57, ChaseWeight: 0.03, HotWeight: 0.25,
			StreamWS: mb(40), RandomWS: kb(256), ChaseWS: mb(8), HotWS: kb(32),
			StreamStride: 8, HotStoreBias: 0.45},
		{Name: "mesa", MemFraction: 0.28, StoreFraction: 0.30,
			StreamWeight: 0.30, RandomWeight: 0.55, ChaseWeight: 0.05, HotWeight: 0.10,
			StreamWS: kb(192), RandomWS: kb(192), ChaseWS: kb(64), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.10},
		{Name: "mgrid", MemFraction: 0.33, StoreFraction: 0.20,
			StreamWeight: 0.24, RandomWeight: 0.56, ChaseWeight: 0.05, HotWeight: 0.15,
			StreamWS: mb(56), RandomWS: kb(256), ChaseWS: kb(128), HotWS: kb(96),
			StreamStride: 8, HotStoreBias: 0.25},
		{Name: "swim", MemFraction: 0.32, StoreFraction: 0.34,
			StreamWeight: 0.55, RandomWeight: 0.30, ChaseWeight: 0.0, HotWeight: 0.15,
			StreamWS: mb(192), RandomWS: kb(256), ChaseWS: kb(128), HotWS: kb(96),
			StreamStride: 8, HotStoreBias: 0.25},
		{Name: "wupwise", MemFraction: 0.29, StoreFraction: 0.22,
			StreamWeight: 0.19, RandomWeight: 0.66, ChaseWeight: 0.05, HotWeight: 0.10,
			StreamWS: mb(176), RandomWS: kb(256), ChaseWS: kb(128), HotWS: kb(128),
			StreamStride: 8, HotStoreBias: 0.20},
		// SPECint. Cache-resident working sets; the pointer chasers (mcf,
		// twolf, parser, vpr) carry dependent misses that make them latency-
		// sensitive even at modest miss rates.
		{Name: "bzip2", MemFraction: 0.27, StoreFraction: 0.30,
			StreamWeight: 0.50, RandomWeight: 0.35, ChaseWeight: 0.02, HotWeight: 0.13,
			StreamWS: kb(384), RandomWS: kb(256), ChaseWS: kb(64), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.10},
		{Name: "crafty", MemFraction: 0.28, StoreFraction: 0.22,
			StreamWeight: 0.20, RandomWeight: 0.70, ChaseWeight: 0.02, HotWeight: 0.08,
			StreamWS: kb(128), RandomWS: kb(128), ChaseWS: kb(64), HotWS: kb(32),
			StreamStride: 8, HotStoreBias: 0.05},
		{Name: "eon", MemFraction: 0.26, StoreFraction: 0.28,
			StreamWeight: 0.10, RandomWeight: 0.80, ChaseWeight: 0.02, HotWeight: 0.08,
			StreamWS: kb(64), RandomWS: kb(96), ChaseWS: kb(32), HotWS: kb(16),
			StreamStride: 8, HotStoreBias: 0.05},
		{Name: "gap", MemFraction: 0.27, StoreFraction: 0.25,
			StreamWeight: 0.45, RandomWeight: 0.40, ChaseWeight: 0.05, HotWeight: 0.10,
			StreamWS: kb(256), RandomWS: kb(256), ChaseWS: kb(64), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.10},
		{Name: "gcc", MemFraction: 0.29, StoreFraction: 0.32,
			StreamWeight: 0.05, RandomWeight: 0.76, ChaseWeight: 0.02, HotWeight: 0.17,
			StreamWS: mb(8), RandomWS: kb(512), ChaseWS: mb(4), HotWS: kb(128),
			StreamStride: 8, HotStoreBias: 0.15},
		{Name: "gzip", MemFraction: 0.26, StoreFraction: 0.28,
			StreamWeight: 0.55, RandomWeight: 0.35, ChaseWeight: 0.02, HotWeight: 0.08,
			StreamWS: kb(192), RandomWS: kb(96), ChaseWS: kb(64), HotWS: kb(32),
			StreamStride: 8, HotStoreBias: 0.05},
		{Name: "mcf", MemFraction: 0.36, StoreFraction: 0.22,
			StreamWeight: 0.10, RandomWeight: 0.50, ChaseWeight: 0.25, HotWeight: 0.15,
			StreamWS: mb(16), RandomWS: kb(256), ChaseWS: mb(160), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.40},
		{Name: "parser", MemFraction: 0.29, StoreFraction: 0.26,
			StreamWeight: 0.05, RandomWeight: 0.76, ChaseWeight: 0.015, HotWeight: 0.175,
			StreamWS: mb(4), RandomWS: kb(384), ChaseWS: mb(8), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.15},
		{Name: "perlbmk", MemFraction: 0.28, StoreFraction: 0.30,
			StreamWeight: 0.20, RandomWeight: 0.60, ChaseWeight: 0.12, HotWeight: 0.08,
			StreamWS: kb(192), RandomWS: kb(192), ChaseWS: kb(96), HotWS: kb(32),
			StreamStride: 8, HotStoreBias: 0.05},
		{Name: "twolf", MemFraction: 0.30, StoreFraction: 0.28,
			StreamWeight: 0.05, RandomWeight: 0.63, ChaseWeight: 0.02, HotWeight: 0.30,
			StreamWS: kb(384), RandomWS: kb(256), ChaseWS: mb(8), HotWS: kb(32),
			StreamStride: 8, HotStoreBias: 0.50},
		{Name: "vortex", MemFraction: 0.28, StoreFraction: 0.30,
			StreamWeight: 0.25, RandomWeight: 0.50, ChaseWeight: 0.15, HotWeight: 0.10,
			StreamWS: kb(256), RandomWS: kb(256), ChaseWS: kb(192), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.10},
		{Name: "vpr", MemFraction: 0.29, StoreFraction: 0.27,
			StreamWeight: 0.08, RandomWeight: 0.715, ChaseWeight: 0.012, HotWeight: 0.193,
			StreamWS: kb(512), RandomWS: kb(384), ChaseWS: mb(4), HotWS: kb(64),
			StreamStride: 8, HotStoreBias: 0.20},
	}
	out := make(map[string]Profile, len(ps))
	for _, p := range ps {
		out[p.Name] = p
	}
	return out
}

// Names returns the profile names in sorted order.
func Names() []string {
	ps := Profiles()
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns a named profile, panicking on unknown names (a typo in an
// experiment spec should fail loudly).
func Get(name string) Profile {
	p, ok := Profiles()[name]
	if !ok {
		panic("trace: unknown benchmark profile " + name)
	}
	return p
}
