// Package predictor implements the counter-prediction and pad-
// precomputation scheme of Shi et al. [16], the comparison point of the
// paper's Figure 6. Instead of caching counters on-chip, the scheme keeps a
// per-page base counter, predicts a missing block's counter as base,
// base+1, ..., base+N-1, and precomputes all N candidate pads while the
// block (and its actual 64-bit counter, stored with the data) travels from
// memory:
//
//   - a correct prediction whose pad finished in time hides decryption
//     entirely (a "timely pad");
//   - a correct prediction with a late pad waits for the AES engine;
//   - a misprediction generates the pad after the counter arrives, like a
//     counter-cache miss.
//
// The costs the paper highlights are modeled: N-fold AES issue bandwidth
// per decryption (hence the one- vs two-engine configurations) and the
// extra bus occupancy of shipping a 64-bit counter with every block.
package predictor

import (
	"fmt"

	"secmem/internal/bus"
	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/dram"
	"secmem/internal/engine"
	"secmem/internal/sim"
)

// BlockSize is the memory block granularity.
const BlockSize = 64

// CounterBytes is the per-block counter shipped with each data transfer.
const CounterBytes = 8

// Config parameterizes the prediction scheme.
type Config struct {
	// System supplies cache geometry, bus, memory, and AES latency.
	System config.SystemConfig
	// N is the number of counter values predicted per decryption (the
	// paper uses the recommended N=5).
	N int
	// Engines is the AES engine count (1 or 2 in Figure 6).
	Engines int
	// PageBytes is the granularity of base counters (4 KB).
	PageBytes uint64
}

// DefaultConfig returns the paper's Figure 6 configuration.
func DefaultConfig(sys config.SystemConfig, engines int) Config {
	return Config{System: sys, N: 5, Engines: engines, PageBytes: 4096}
}

// Stats accumulates the Figure 6 metrics.
type Stats struct {
	Misses       uint64 // L2 misses (decryptions attempted)
	Predicted    uint64 // correct counter predictions
	TimelyPads   uint64 // predictions whose pad beat the data
	WriteBacks   uint64
	CounterBytes uint64 // extra bus traffic for counters
}

// PredictionRate is predictions/misses.
func (s Stats) PredictionRate() float64 {
	if s.Misses == 0 {
		return 1
	}
	return float64(s.Predicted) / float64(s.Misses)
}

// TimelyPadRate is timely pads over misses.
func (s Stats) TimelyPadRate() float64 {
	if s.Misses == 0 {
		return 1
	}
	return float64(s.TimelyPads) / float64(s.Misses)
}

// System is a complete memory hierarchy using counter prediction for
// decryption. It implements cpu.Memory.
type System struct {
	cfg Config
	l1  *cache.Cache
	l2  *cache.Cache
	bus *bus.Bus
	mem *dram.DRAM
	aes *engine.AES

	counters map[uint64]uint64 // per-block counter values
	base     map[uint64]uint64 // per-page base counters

	Stats Stats
}

// New builds the prediction system.
func New(cfg Config) (*System, error) {
	if err := cfg.System.Validate(); err != nil {
		return nil, err
	}
	sys := cfg.System
	s := &System{
		cfg: cfg,
		l1:  cache.New(sys.L1),
		l2:  cache.New(sys.L2),
		bus: bus.New(bus.Config{
			WidthBytes:           sys.BusWidthBytes,
			CPUCyclesPerBusCycle: sys.BusCPUCyclesPerBusCycle,
		}),
		aes:      engine.NewAES(cfg.Engines, sys.AESLatency),
		counters: make(map[uint64]uint64),
		base:     make(map[uint64]uint64),
	}
	s.mem = dram.New(dram.Config{
		SizeBytes:       sys.MemBytes + sys.MemBytes/8,
		LatencyCycles:   sys.MemLatencyCycles,
		ServiceInterval: 16,
	})
	return s, nil
}

// AES exposes the engine for utilization reporting.
func (s *System) AES() *engine.AES { return s.aes }

func (s *System) page(addr uint64) uint64 { return addr / s.cfg.PageBytes * s.cfg.PageBytes }

// Access implements the cpu.Memory interface.
func (s *System) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	blk := s.l1.BlockAddr(addr)
	l1Lat := s.cfg.System.L1.LatencyCycles
	l2Lat := s.cfg.System.L2.LatencyCycles
	if s.l1.Lookup(blk, write) {
		t := now + l1Lat
		return core.AccessResult{DataReady: t, AuthDone: t}
	}
	var res core.AccessResult
	if s.l2.Lookup(blk, false) {
		t := now + l1Lat + l2Lat
		res = core.AccessResult{DataReady: t, AuthDone: t}
	} else {
		ready := s.readMiss(now+l1Lat+l2Lat, blk)
		if ev, evicted := s.l2.Fill(blk, false); evicted {
			s.evictL2(now, ev)
		}
		res = core.AccessResult{DataReady: ready, AuthDone: ready, L2Miss: true}
	}
	// Fill L1, dirty for a store. Inclusion keeps a dirty L1 victim resident
	// in L2: every L2 removal goes through evictL2, which back-invalidates
	// L1 first.
	if ev, evicted := s.l1.Fill(blk, write); evicted && ev.Dirty && !s.l2.SetDirty(ev.Addr) {
		panic(fmt.Sprintf("predictor: inclusion violated: dirty L1 victim %#x is not in L2", ev.Addr))
	}
	return res
}

func (s *System) evictL2(now sim.Time, ev cache.Eviction) {
	if present, dirty := s.l1.Invalidate(ev.Addr); present && dirty {
		ev.Dirty = true
	}
	if !ev.Dirty {
		return
	}
	s.writeBack(now, ev.Addr)
}

// readMiss models the prediction path for one decryption.
func (s *System) readMiss(now sim.Time, blk uint64) sim.Time {
	s.Stats.Misses++
	// Fetch block + its stored counter (wider transfer).
	start := s.bus.Transfer(now, BlockSize+CounterBytes)
	s.Stats.CounterBytes += CounterBytes
	arrive := s.mem.AccessRead(start)

	// Precompute N candidate pads (each pad is four chunk encryptions).
	base := s.base[s.page(blk)]
	padDone := make([]sim.Time, s.cfg.N)
	for i := range padDone {
		padDone[i] = s.aes.GenerateBlockPads(now)
	}

	actual := s.counters[blk]
	if actual >= base && actual < base+uint64(s.cfg.N) {
		s.Stats.Predicted++
		done := padDone[actual-base]
		if done <= arrive {
			s.Stats.TimelyPads++
		}
		return sim.Max(arrive, done) + 1
	}
	// Misprediction: learn the actual counter and generate the pad after
	// it arrives.
	s.base[s.page(blk)] = actual
	return s.aes.GenerateBlockPads(arrive) + 1
}

// writeBack re-encrypts a dirty block: the counter advances and the page
// base learns the new value.
func (s *System) writeBack(now sim.Time, blk uint64) {
	s.Stats.WriteBacks++
	s.counters[blk]++
	s.base[s.page(blk)] = s.counters[blk]
	padDone := s.aes.GenerateBlockPads(now)
	start := s.bus.Transfer(padDone+1, BlockSize+CounterBytes)
	s.Stats.CounterBytes += CounterBytes
	s.mem.AccessWrite(start)
}

// SnapshotStats returns the stats and resets the windowed counters used by
// the Figure 6(b) trend plot (cumulative fields continue externally).
func (s *System) SnapshotStats() Stats {
	st := s.Stats
	s.Stats = Stats{}
	return st
}
