package core

import (
	"bytes"
	"testing"

	"secmem/internal/config"
)

// predictCfg is a timing-only counter-prediction machine over smallCfg's
// caches: a 1 KB 2-way L1 and an 8 KB 4-way L2 (32 sets, so addresses
// 2 KB apart share a set).
func predictCfg(engines int) config.SystemConfig {
	cfg := smallCfg()
	cfg.Functional = false
	cfg.MemBytes = 16 << 20
	cfg.Enc = config.EncCounterPredict
	cfg.Auth = config.AuthNone
	cfg.AuthenticateCounters = false
	cfg.AESEngines = engines
	return cfg
}

func predictionRate(m *MemSystem) float64 {
	return float64(m.Controller().CorrectPredictions()) / float64(m.Controller().Stats.PadReads)
}

func TestFreshCountersPredictPerfectly(t *testing.T) {
	// All counters start at zero, as do the bases: the paper observes the
	// prediction rate "starts off high because all counters have the same
	// initial value".
	m := mustSystem(t, predictCfg(1))
	for i := 0; i < 100; i++ {
		m.Access(uint64(i)*500, uint64(i)*64, false)
	}
	if n := m.Controller().Stats.PadReads; n != 100 {
		t.Fatalf("decryptions = %d, want 100", n)
	}
	if r := predictionRate(m); r != 1 {
		t.Errorf("cold prediction rate = %.2f, want 1.0", r)
	}
}

func TestDivergingCountersDegradePrediction(t *testing.T) {
	// Once blocks within a page carry widely divergent counters, a single
	// page base cannot predict them: one misprediction relearns the base,
	// but the next block's counter differs again — the paper's Figure 6(b)
	// degradation. Stage the divergence directly and read the page.
	m := mustSystem(t, predictCfg(1))
	for b := uint64(0); b < 32; b++ {
		m.Controller().pred.ctr[b*64] = b * 10 // far beyond any N=5 window
	}
	for b := uint64(0); b < 32; b++ {
		m.Access(b*1000, b*64, false)
	}
	if r := predictionRate(m); r > 0.3 {
		t.Errorf("diverged-page prediction rate = %.2f, want low", r)
	}
}

func TestMispredictionLearnsBase(t *testing.T) {
	m := mustSystem(t, predictCfg(1))
	p := m.Controller().pred
	p.ctr[0] = 100 // far ahead of its page base
	m.Access(0, 0, false)
	if p.base[0] != 100 {
		t.Errorf("base after misprediction = %d, want 100", p.base[0])
	}
	if p.correct != 0 {
		t.Error("misprediction counted as correct")
	}
	// Evict block 0 from the L2 (addresses 8 KB apart share its set), then
	// re-read it: the relearned base now predicts it.
	for k := uint64(1); k < 10; k++ {
		m.Access(k*1000, k*8192, false)
	}
	before := p.correct
	m.Access(100000, 0, false)
	if p.correct != before+1 {
		t.Errorf("relearned base did not predict: %d correct, want %d", p.correct, before+1)
	}
}

func TestWriteBackAdvancesCounterAndBase(t *testing.T) {
	m := mustSystem(t, predictCfg(1))
	ctl := m.Controller()
	// Write block 0, then conflict-evict it with stores 2 KB apart so its
	// dirty eviction is written back.
	m.Access(0, 0, true)
	for k := uint64(1); k <= 8; k++ {
		m.Access(k*1000, k*2048, true)
	}
	if ctl.Stats.WriteBacks == 0 {
		t.Fatal("no write-backs happened")
	}
	if ctl.pred.ctr[0] != 1 {
		t.Errorf("counter after write-back = %d, want 1", ctl.pred.ctr[0])
	}
	if ctl.pred.base[0] != 1 {
		t.Errorf("page base after write-back = %d, want 1", ctl.pred.base[0])
	}
	// Write-backs ship the counter too.
	want := (ctl.Stats.PadReads + ctl.Stats.WriteBacks) * uint64(ctl.Bus().Occupancy(BlockSize+CounterBytes))
	if got := uint64(ctl.Bus().BusyCycles()); got != want {
		t.Errorf("bus busy = %d cycles, want %d (every transfer 72 bytes)", got, want)
	}
}

func TestTwoEnginesImproveTimeliness(t *testing.T) {
	run := func(engines int) float64 {
		m := mustSystem(t, predictCfg(engines))
		// Closely spaced misses contend for AES issue slots: with N=5
		// pads per miss, one engine cannot keep up.
		for i := uint64(0); i < 400; i++ {
			m.Access(i*60, i*64, false)
		}
		st := m.Controller().Stats
		return float64(st.TimelyPads) / float64(st.PadReads)
	}
	one, two := run(1), run(2)
	if two <= one {
		t.Errorf("timely pads: 2 engines %.2f not better than 1 engine %.2f", two, one)
	}
}

func TestPredictionConsumesNFoldAESBandwidth(t *testing.T) {
	m := mustSystem(t, predictCfg(1))
	for i := uint64(0); i < 50; i++ {
		m.Access(i*10000, i*64, false)
	}
	// Each miss precomputes N pads of 4 chunks.
	wantMin := m.Controller().Stats.PadReads * PredictN * 4
	if got := m.Controller().aes.Issues(); got < wantMin {
		t.Errorf("AES issues = %d, want >= %d (N-fold precomputation)", got, wantMin)
	}
}

func TestPredictTransfersShipCounter(t *testing.T) {
	m := mustSystem(t, predictCfg(1))
	for i := uint64(0); i < 20; i++ {
		m.Access(i*10000, i*64, false)
	}
	bus := m.Controller().Bus()
	if bus.Occupancy(BlockSize+CounterBytes) <= bus.Occupancy(BlockSize) {
		t.Fatal("a 72-byte transfer does not occupy the bus longer than 64 bytes")
	}
	want := 20 * bus.Occupancy(BlockSize+CounterBytes)
	if got := bus.BusyCycles(); got != want {
		t.Errorf("bus busy = %d cycles for 20 fills, want %d (72-byte transfers)", got, want)
	}
}

func TestPredictL2HitAndL1Paths(t *testing.T) {
	m := mustSystem(t, predictCfg(1))
	r1 := m.Access(0, 0x40, false)
	if !r1.L2Miss {
		t.Fatal("cold access hit")
	}
	// L1 hit.
	r2 := m.Access(r1.DataReady, 0x40, false)
	if r2.L2Miss || r2.DataReady != r1.DataReady+2 {
		t.Errorf("L1 hit wrong: %+v", r2)
	}
	// Evict from the 1 KB 2-way L1 (stride 512) but keep in L2: L2 hit.
	m.Access(r2.DataReady, 0x40+512, false)
	m.Access(r2.DataReady+100, 0x40+1024, false)
	r3 := m.Access(r2.DataReady+1000, 0x40, false)
	if r3.L2Miss || r3.DataReady != r2.DataReady+1000+2+10 {
		t.Errorf("L2 hit wrong: %+v", r3)
	}
}

func TestPredictInvalidConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*config.SystemConfig)
	}{
		{"ROB size", func(c *config.SystemConfig) { c.ROBSize = 0 }},
		{"page blocks", func(c *config.SystemConfig) { c.PageBlocks = 0 }},
		{"auth", func(c *config.SystemConfig) { c.Auth = config.AuthGCM }},
	} {
		cfg := predictCfg(1)
		tc.mutate(&cfg)
		if _, err := NewMemSystem(cfg); err == nil {
			t.Errorf("%s: invalid prediction config accepted", tc.name)
		}
	}
}

// TestPredictFunctionalPadsFollowCounter writes the same plaintext to a
// block twice, draining after each write: the second write-back advances
// the block's counter, so its ciphertext must differ from the first, and
// both must read back.
func TestPredictFunctionalPadsFollowCounter(t *testing.T) {
	cfg := predictCfg(1)
	cfg.Functional = true
	m := mustSystem(t, cfg)
	msg := bytes.Repeat([]byte("counter "), 8)
	var ct [2][BlockSize]byte
	for i := range ct {
		now := uint64(i) * 10000
		if _, err := m.WriteBytes(now, 0x3000, msg); err != nil {
			t.Fatal(err)
		}
		m.Drain(now + 100)
		m.Controller().DRAM().ReadBlock(0x3000, ct[i][:])
		got := make([]byte, len(msg))
		if _, err := m.ReadBytes(now+200, 0x3000, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("write %d: round trip corrupted", i)
		}
	}
	if ctr := m.Controller().pred.ctr[0x3000]; ctr != 2 {
		t.Errorf("counter after two write-backs = %d, want 2", ctr)
	}
	if ct[0] == ct[1] {
		t.Error("same plaintext under an advanced counter gave the same ciphertext (pad reuse)")
	}
}
