package config

import "testing"

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("Baseline invalid: %v", err)
	}
}

// TestDefaultMatchesPaperSection5 pins the parameters a SystemConfig
// carries; the fixed ones are pinned by the tests of cpu, bus, dram and
// engine.
func TestDefaultMatchesPaperSection5(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"L1 size", c.L1.SizeBytes, 16 << 10},
		{"L1 ways", c.L1.Ways, 4},
		{"L1 latency", c.L1.LatencyCycles, uint64(2)},
		{"L2 size", c.L2.SizeBytes, 1 << 20},
		{"L2 ways", c.L2.Ways, 8},
		{"L2 latency", c.L2.LatencyCycles, uint64(10)},
		{"SNC size", c.CounterCache.SizeBytes, 32 << 10},
		{"SNC ways", c.CounterCache.Ways, 8},
		{"memory", c.MemBytes, uint64(512 << 20)},
		{"SHA1 latency", c.SHA1Latency, uint64(320)},
		{"minor bits", c.MinorBits, 7},
		{"page blocks", c.PageBlocks, 64},
		{"RSRs", c.RSRs, 8},
		{"MAC bits", c.MACBits, 64},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*SystemConfig)
	}{
		{"zero ROB", func(c *SystemConfig) { c.ROBSize = 0 }},
		{"bad L1", func(c *SystemConfig) { c.L1.Ways = 0 }},
		{"bad mem size", func(c *SystemConfig) { c.MemBytes = 100 }},
		{"bad mono bits", func(c *SystemConfig) { c.Enc = EncCounterMono; c.MonoCounterBits = 12 }},
		{"bad minor bits", func(c *SystemConfig) { c.MinorBits = 0 }},
		{"bad page blocks", func(c *SystemConfig) { c.PageBlocks = 48 }},
		{"no RSRs", func(c *SystemConfig) { c.RSRs = 0 }},
		{"bad MAC bits", func(c *SystemConfig) { c.MACBits = 48 }},
		{"zero AES", func(c *SystemConfig) { c.AESEngines = 0 }},
		{"zero SHA with SHA auth", func(c *SystemConfig) { c.Auth = AuthSHA1; c.SHA1Latency = 0 }},
		{"bad counter cache", func(c *SystemConfig) { c.CounterCache.SizeBytes = 100 }},
		// GCM without counter-mode encryption keeps split counters.
		{"GCM-only zero minor bits", func(c *SystemConfig) { c.Enc = EncNone; c.MinorBits = 0 }},
		{"GCM-only zero page blocks", func(c *SystemConfig) { c.Enc = EncNone; c.PageBlocks = 0 }},
		{"GCM-only no RSRs", func(c *SystemConfig) { c.Enc = EncNone; c.RSRs = 0 }},
		{"GCM-only minors overflow the block", func(c *SystemConfig) { c.Enc = EncNone; c.MinorBits = 16 }},
		{"Direct+GCM minors overflow the block", func(c *SystemConfig) { c.Enc = EncDirect; c.MinorBits = 16 }},
		{"one-way L2 holding Merkle nodes", func(c *SystemConfig) { c.L2.Ways = 1 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	cases := []struct {
		mut  func(*SystemConfig)
		want string
	}{
		{func(c *SystemConfig) { c.Enc = EncNone; c.Auth = AuthNone }, "base"},
		{func(c *SystemConfig) { c.Enc = EncCounterSplit; c.Auth = AuthGCM }, "Split+GCM"},
		{func(c *SystemConfig) { c.Enc = EncCounterMono; c.MonoCounterBits = 8; c.Auth = AuthNone }, "Mono8b"},
		{func(c *SystemConfig) { c.Enc = EncDirect; c.Auth = AuthSHA1 }, "Direct+SHA"},
		{func(c *SystemConfig) { c.Enc = EncNone; c.Auth = AuthGCM }, "GCM"},
		{func(c *SystemConfig) { c.Enc = EncCounterGlobal; c.MonoCounterBits = 32; c.Auth = AuthNone }, "Global32b"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if got := c.SchemeName(); got != tc.want {
			t.Errorf("SchemeName = %q, want %q", got, tc.want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if EncCounterSplit.String() != "Split" || EncDirect.String() != "Direct" {
		t.Error("EncryptionMode strings wrong")
	}
	if AuthGCM.String() != "GCM" || AuthSHA1.String() != "SHA" {
		t.Error("AuthMode strings wrong")
	}
	if AuthLazy.String() != "lazy" || AuthCommit.String() != "commit" || AuthSafe.String() != "safe" {
		t.Error("AuthReq strings wrong")
	}
	if EncryptionMode(99).String() == "" || AuthMode(99).String() == "" || AuthReq(99).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestUsesCounters(t *testing.T) {
	if !EncCounterSplit.UsesCounters() || !EncCounterMono.UsesCounters() || !EncCounterGlobal.UsesCounters() {
		t.Error("counter modes must use counters")
	}
	if EncNone.UsesCounters() || EncDirect.UsesCounters() {
		t.Error("non-counter modes must not use counters")
	}
}
