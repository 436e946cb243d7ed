package core

import (
	"bytes"
	"strings"
	"testing"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/dram"
	"secmem/internal/merkle"
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// workload drives enough misses, write-backs, and Merkle walks through the
// system to light up every instrumented subsystem.
func workload(t *testing.T, m *MemSystem) sim.Time {
	t.Helper()
	var now sim.Time
	// Stride past the caches so fills, evictions, and counter misses happen.
	for i := 0; i < 400; i++ {
		addr := uint64(i%200) * 64 * 7
		r := m.Access(now, addr, i%3 == 0)
		if r.AuthDone > now {
			now = r.AuthDone
		}
		now += 10
	}
	return now
}

// counterSources maps every counter an instrumented machine's registry
// holds, bar the per-level Merkle counters, to the statistic it reports.
func counterSources(m *MemSystem) map[string]uint64 {
	c := m.ctl
	want := map[string]uint64{
		"bus.xfer":      c.bus.Issues(),
		"bus.bytes":     c.bus.Bytes,
		"dram.read":     c.mem.Reads,
		"dram.write":    c.mem.Writes,
		"aes.issue":     c.aes.Issues(),
		"ctl.fill":      c.Stats.Fills,
		"ctl.writeback": c.Stats.WriteBacks,
		"ctl.tamper":    c.Stats.TamperDetected,
	}
	caches := map[string]*cache.Cache{"l1": m.l1, "l2": m.l2}
	if c.macCache != nil {
		caches["maccache"] = c.macCache
	}
	for name, ch := range caches {
		want[name+".hit"] = ch.Stats.Accesses() - ch.Stats.Misses()
		want[name+".miss"] = ch.Stats.Misses()
	}
	if c.sha != nil {
		want["sha.issue"] = c.sha.Issues()
	}
	if c.ctrs != nil {
		st := c.ctrs.Stats
		want["ctrcache.hit"] = st.Hits
		want["ctrcache.halfmiss"] = st.HalfMisses
		want["ctrcache.miss"] = st.Misses
		want["ctrcache.incr"] = st.Increments
		want["ctrcache.overflow"] = st.MinorOverflows + st.FullOverflows
	}
	if c.rsrs != nil {
		st := c.rsrs.Stats
		want["rsr.pagereenc"] = st.PageReencs
		want["rsr.stall"] = st.SamePageStalls + st.AllocStalls
	}
	return want
}

// storeStream makes passes over three 4 KB pages, 192 blocks against the
// small L2's 128, visiting the pages in turn: every pass misses, fills and
// writes dirty victims back, and neighbouring write-backs land in
// different pages. Each block is accessed twice in a row, the second time
// an L1 hit, and three blocks of four are stored to. Accesses issue 10
// cycles apart without waiting for the misses, so page re-encryptions
// overlap.
func storeStream(m *MemSystem, passes int) sim.Time {
	const pages, pageBlocks = 3, 64
	var now sim.Time
	for i := 0; i < pages*pageBlocks*passes; i++ {
		j := i % (pages * pageBlocks)
		addr := uint64(j%pages*pageBlocks+j/pages) * BlockSize
		for _, off := range []uint64{0, 8} {
			m.Access(now, addr+off, j%4 != 0)
			now += 10
		}
	}
	return now
}

// TestInstrumentedRunPopulatesRegistry instruments one machine per scheme,
// drives a store-heavy stream through it and requires every registry
// counter to equal the statistic it reports. The rows are chosen so each
// counter is nonzero on some machine.
func TestInstrumentedRunPopulatesRegistry(t *testing.T) {
	cases := []struct {
		name    string
		set     func(*config.SystemConfig)
		passes  int
		tamper  bool     // flip one stored bit in DRAM, then read it back
		nonzero []string // counters the row must exercise
	}{
		{name: "Baseline", set: func(c *config.SystemConfig) {
			c.Enc, c.Auth, c.AuthenticateCounters = config.EncNone, config.AuthNone, false
		},
			nonzero: []string{"l1.hit", "l1.miss", "l2.miss", "bus.xfer", "bus.bytes", "dram.read", "dram.write", "ctl.fill", "ctl.writeback"}},
		{name: "Split+GCM",
			nonzero: []string{"l2.hit", "aes.issue", "ctrcache.hit", "ctrcache.halfmiss", "ctrcache.miss", "ctrcache.incr", "merkle.level0.fetch"}},
		{name: "Mono+SHA", set: func(c *config.SystemConfig) { c.Enc, c.Auth = config.EncCounterMono, config.AuthSHA1 },
			nonzero: []string{"sha.issue", "ctrcache.incr"}},
		{name: "XOM+SHA", set: func(c *config.SystemConfig) {
			c.Enc, c.Auth, c.AuthenticateCounters = config.EncDirect, config.AuthSHA1, false
		}, nonzero: []string{"sha.issue", "aes.issue"}},
		{name: "Pred", set: func(c *config.SystemConfig) { c.Enc, c.Auth = config.EncCounterPredict, config.AuthNone },
			nonzero: []string{"aes.issue", "ctl.fill"}},
		{name: "Split+GCM/minor2", set: func(c *config.SystemConfig) { c.MinorBits = 2 },
			nonzero: []string{"ctrcache.overflow", "rsr.pagereenc"}},
		{name: "Mono8b", set: func(c *config.SystemConfig) {
			c.Enc, c.MonoCounterBits, c.Auth, c.AuthenticateCounters = config.EncCounterMono, 8, config.AuthNone, false
		}, passes: 260, nonzero: []string{"ctrcache.overflow"}},
		{name: "Split+GCM/1RSR", set: func(c *config.SystemConfig) { c.MinorBits, c.RSRs = 2, 1 },
			nonzero: []string{"ctrcache.overflow", "rsr.pagereenc", "rsr.stall"}},
		// maccache.miss stays zero on every machine: the tree walk probes
		// with Contains and looks a node up only when it is resident.
		{name: "Split+GCM/MAC$", set: func(c *config.SystemConfig) { c.MacCacheBytes = 2 << 10 },
			nonzero: []string{"maccache.hit"}},
		{name: "Split+GCM/functional", set: func(c *config.SystemConfig) { c.Functional = true },
			tamper: true, nonzero: []string{"ctl.tamper"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Functional = false
			if tc.set != nil {
				tc.set(&cfg)
			}
			passes := tc.passes
			if passes == 0 {
				passes = 8
			}
			m := mustSystem(t, cfg)
			reg := obsv.NewRegistry()
			rec := obsv.NewRecorder(0)
			m.Instrument(reg, rec)
			end := storeStream(m, passes)
			if tc.tamper {
				m.Drain(end)
				dram.NewAttacker(m.ctl.mem).FlipBit(0, 3)
				end += 100_000
				if r := m.Access(end, 0, false); r.AuthDone > end {
					end = r.AuthDone
				}
			}
			m.ExportObs(end)

			snap := reg.Snapshot()
			want := counterSources(m)
			for name, v := range snap.Counters {
				if strings.HasPrefix(name, "merkle.") {
					continue
				}
				if w, ok := want[name]; !ok {
					t.Errorf("counter %q = %d reports no statistic", name, v)
				} else if v != w {
					t.Errorf("counter %q = %d, its statistic is %d", name, v, w)
				}
			}
			for name := range want {
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("counter %q missing after ExportObs", name)
				}
			}
			var levelFetches uint64
			if geo := m.ctl.lay.Geo; geo != nil {
				for i := 0; i < geo.NumLevels(); i++ {
					lvl := "merkle." + merkle.LevelName(i)
					fetch, ok := snap.Counters[lvl+".fetch"]
					if !ok {
						t.Errorf("counter %q missing after ExportObs", lvl+".fetch")
					}
					if verify := snap.Counters[lvl+".verify"]; verify != fetch {
						t.Errorf("%s: %d verifies, %d fetches", lvl, verify, fetch)
					}
					levelFetches += fetch
				}
			}
			if levelFetches != m.ctl.Stats.MacFetches {
				t.Errorf("per-level Merkle fetches sum to %d, want the %d MacFetches", levelFetches, m.ctl.Stats.MacFetches)
			}
			for _, name := range tc.nonzero {
				if snap.Counters[name] == 0 {
					t.Errorf("counter %q is zero after the run", name)
				}
			}
			for _, name := range []string{"bus.util", "aes.util", "l2.hitrate"} {
				if _, ok := snap.Gauges[name]; !ok {
					t.Errorf("gauge %q missing after ExportObs", name)
				}
			}
			if snap.Histograms["ctl.read.cycles"].Count == 0 {
				t.Error("ctl.read.cycles histogram empty")
			}
			if rec.Len() == 0 {
				t.Error("recorder captured no events")
			}
		})
	}
}

func TestInstrumentedRunMatchesUninstrumented(t *testing.T) {
	// Instrumentation must not perturb timing: the same workload through an
	// instrumented and a bare system ends at the same cycle.
	cfg := smallCfg()
	cfg.Functional = false
	bare := mustSystem(t, cfg)
	inst := mustSystem(t, cfg)
	inst.Instrument(obsv.NewRegistry(), obsv.NewRecorder(0))
	endBare := workload(t, bare)
	endInst := workload(t, inst)
	if endBare != endInst {
		t.Errorf("instrumented run ends at %d, bare at %d", endInst, endBare)
	}
}

func TestObservedRunDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg := smallCfg()
		cfg.Functional = false
		m := mustSystem(t, cfg)
		reg := obsv.NewRegistry()
		rec := obsv.NewRecorder(0)
		m.Instrument(reg, rec)
		end := workload(t, m)
		m.ExportObs(end)
		var mbuf, tbuf bytes.Buffer
		if err := reg.WriteJSON(&mbuf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := rec.WriteJSON(&tbuf); err != nil {
			t.Fatalf("trace WriteJSON: %v", err)
		}
		return mbuf.Bytes(), tbuf.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Error("metric JSON differs between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs between identical runs")
	}
}
