package core

import (
	"secmem/internal/cache"
	"secmem/internal/merkle"
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// Instrument registers the controller's histograms in reg and attaches the
// trace recorder, wiring both through every shared timeline (bus, DRAM,
// engines). This is the one place a histogram or a trace track is named,
// as addCounters is for counters. Either argument may be nil; an
// uninstrumented controller pays one predicted branch per hook, since
// every hook, the timelines' too, inlines as its nil check. Counters are
// not touched during the run: ExportObs adds them from the statistics at
// its end.
//
// The Registry and Recorder are not safe for concurrent use, so use one
// pair per simulated machine.
func (c *Controller) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	c.rec = rec
	c.bus.Observe(reg.Histogram("bus.wait"), rec, "bus")
	c.mem.Observe(nil, rec, "dram")
	c.aes.Observe(reg.Histogram("aes.pipe.wait"), rec, "aes")
	if c.sha != nil {
		c.sha.Observe(reg.Histogram("sha.pipe.wait"), rec, "sha")
	}
	if c.rsrs != nil {
		c.hRSR = reg.Histogram("rsr.cycles")
	}
	c.hTxn = reg.Histogram("ctl.read.cycles")
	if c.lay.Geo != nil {
		n := c.lay.Geo.NumLevels()
		c.merkleFetch = make([]uint64, n)
		c.merkleTrack = make([]string, n)
		for i := range c.merkleTrack {
			c.merkleTrack[i] = "merkle." + merkle.LevelName(i)
		}
	}
}

// noteMerkleNode counts one Merkle node fetch+verify against its level and
// emits the two spans that make level overlap visible in the trace (fetch
// issueAt..arrive, verify arrive..done). It inlines as its nil check.
func (c *Controller) noteMerkleNode(mac uint64, issueAt, arrive, done sim.Time) {
	if c.merkleFetch != nil {
		c.countMerkleNode(mac, issueAt, arrive, done)
	}
}

func (c *Controller) countMerkleNode(mac uint64, issueAt, arrive, done sim.Time) {
	lvl := c.lay.Geo.LevelOf(mac)
	if lvl < 0 || lvl >= len(c.merkleFetch) {
		return
	}
	c.merkleFetch[lvl]++
	if c.rec != nil {
		track := c.merkleTrack[lvl]
		c.rec.Span(track, "fetch", uint64(issueAt), uint64(arrive))
		c.rec.Span(track, "verify", uint64(arrive), uint64(done))
	}
}

// RegisterProbes wires the controller's dynamic state into a time-series
// sampler: the trajectories behind the paper's figures (counter-cache hit
// rate over time, RSR occupancy, bus/DRAM utilization, Merkle verify
// traffic, re-encryption and tamper progress) rather than their end-of-run
// averages. Probes only read state owned by the simulation goroutine and
// never allocate. No-op on a nil sampler.
func (c *Controller) RegisterProbes(s *obsv.Sampler) {
	if s == nil {
		return
	}
	s.Series("bus.util", func(cycle uint64) float64 {
		return c.bus.Utilization(sim.Time(cycle))
	})
	s.Series("dram.util", func(cycle uint64) float64 {
		return c.mem.Utilization(sim.Time(cycle))
	})
	s.Series("ctl.fills", func(uint64) float64 { return float64(c.Stats.Fills) })
	s.Series("merkle.fetches", func(uint64) float64 { return float64(c.Stats.MacFetches) })
	s.Series("ctl.tampers", func(uint64) float64 { return float64(c.Stats.TamperDetected) })
	if c.ctrs != nil {
		s.Series("ctrcache.hitrate", func(uint64) float64 { return c.ctrs.Stats.HitRate() })
	}
	if c.rsrs != nil {
		s.Series("rsr.occupancy", func(cycle uint64) float64 {
			return float64(c.rsrs.BusyCount(sim.Time(cycle)))
		})
		s.Series("rsr.pagereencs", func(uint64) float64 { return float64(c.rsrs.Stats.PageReencs) })
	}
}

// Instrument wires the whole hierarchy (L1, L2, controller and its
// substrates) into reg/rec. Either argument may be nil.
func (m *MemSystem) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	m.reg = reg
	m.ctl.Instrument(reg, rec)
}

// AttachSampler hooks a time-series sampler into the access path and
// registers the controller's probes with it. Sampling is timing-neutral:
// the hook only reads counters at sample boundaries and never touches the
// resource timelines, so an attached sampler changes no simulated number.
// No-op on a nil sampler.
func (m *MemSystem) AttachSampler(s *obsv.Sampler) {
	if s == nil {
		return
	}
	m.smp = s
	m.ctl.RegisterProbes(s)
}

// ExportObs writes the run's counters and its end-of-run gauges
// (utilizations, hit rates) into the registry. end is the run's final
// cycle. No-op when uninstrumented.
func (m *MemSystem) ExportObs(end sim.Time) {
	reg, c := m.reg, m.ctl
	if reg == nil {
		return
	}
	m.addCounters(reg)
	reg.SetGauge("l1.hitrate", m.l1.Stats.HitRate())
	reg.SetGauge("l2.hitrate", m.l2.Stats.HitRate())
	reg.SetGauge("bus.util", c.bus.Utilization(end))
	reg.SetGauge("dram.util", c.mem.Utilization(end))
	reg.SetGauge("aes.util", c.aes.Utilization(end))
	if c.sha != nil {
		reg.SetGauge("sha.util", c.sha.Utilization(end))
	}
	if c.ctrs != nil {
		reg.SetGauge("ctrcache.hitrate", c.ctrs.Stats.HitRate())
	}
	if c.rsrs != nil {
		reg.SetGauge("rsr.max_concurrent", float64(c.rsrs.Stats.MaxConcurrent))
		reg.SetGauge("rsr.onchip_fraction", c.rsrs.Stats.OnChipFraction())
	}
	if c.macCache != nil {
		reg.SetGauge("maccache.hitrate", c.macCache.Stats.HitRate())
	}
	if c.rec != nil {
		// Surface trace truncation in the metrics snapshot so a capped
		// recorder is visible even when only the metrics file is kept.
		reg.SetGauge("trace.dropped", float64(c.rec.Dropped()))
	}
}

// addCounters adds every counter from the statistic it reports, the only
// place a counter is named. It adds each machine's totals once per run, so
// a registry shared by successive runs, or merged with obsv.Merge, sums
// them.
func (m *MemSystem) addCounters(reg *obsv.Registry) {
	c := m.ctl
	add := func(name string, v uint64) { reg.Counter(name).Add(v) }
	addCache := func(name string, ch *cache.Cache) {
		add(name+".hit", ch.Stats.Accesses()-ch.Stats.Misses())
		add(name+".miss", ch.Stats.Misses())
	}
	addCache("l1", m.l1)
	addCache("l2", m.l2)
	add("bus.xfer", c.bus.Issues())
	add("bus.bytes", c.bus.Bytes)
	add("dram.read", c.mem.Reads)
	add("dram.write", c.mem.Writes)
	add("aes.issue", c.aes.Issues())
	if c.sha != nil {
		add("sha.issue", c.sha.Issues())
	}
	add("ctl.fill", c.Stats.Fills)
	add("ctl.writeback", c.Stats.WriteBacks)
	add("ctl.tamper", c.Stats.TamperDetected)
	if s := c.ctrs; s != nil {
		add("ctrcache.hit", s.Stats.Hits)
		add("ctrcache.halfmiss", s.Stats.HalfMisses)
		add("ctrcache.miss", s.Stats.Misses)
		add("ctrcache.incr", s.Stats.Increments)
		add("ctrcache.overflow", s.Stats.MinorOverflows+s.Stats.FullOverflows)
	}
	if f := c.rsrs; f != nil {
		add("rsr.pagereenc", f.Stats.PageReencs)
		add("rsr.stall", f.Stats.SamePageStalls+f.Stats.AllocStalls)
	}
	if c.macCache != nil {
		addCache("maccache", c.macCache)
	}
	// Every fetched node is verified, so one count serves both series.
	for i, n := range c.merkleFetch {
		add(c.merkleTrack[i]+".fetch", n)
		add(c.merkleTrack[i]+".verify", n)
	}
}
