package core

import (
	"bytes"
	"math/rand"
	"testing"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/dram"
)

// smallCfg returns a functional configuration small enough to exercise
// evictions and re-encryptions quickly.
func smallCfg() config.SystemConfig {
	cfg := config.Default()
	cfg.MemBytes = 1 << 20
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, LatencyCycles: 2}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, LatencyCycles: 10}
	cfg.CounterCache = cache.Config{Name: "SNC", SizeBytes: 1 << 10, Ways: 4, BlockBytes: 64, LatencyCycles: 2}
	cfg.Functional = true
	return cfg
}

func mustSystem(t *testing.T, cfg config.SystemConfig) *MemSystem {
	t.Helper()
	m, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatalf("NewMemSystem: %v", err)
	}
	return m
}

func TestLayoutRegions(t *testing.T) {
	lay := NewLayout(config.Default())
	if lay.DataBytes != 512<<20 {
		t.Errorf("data bytes = %d", lay.DataBytes)
	}
	if lay.RegionOf(0) != RegionData || lay.RegionOf(lay.DataBytes-64) != RegionData {
		t.Error("data region misclassified")
	}
	if lay.RegionOf(lay.DirectBase) != RegionCounter {
		t.Error("counter region misclassified")
	}
	if lay.RegionOf(lay.MacBase) != RegionMac {
		t.Error("mac region misclassified")
	}
	if lay.RegionOf(lay.DerivBase) != RegionDeriv {
		t.Error("deriv region misclassified")
	}
	if lay.TotalBytes <= lay.DerivBase {
		t.Error("total does not cover deriv region")
	}
	// No authentication: no MAC region.
	lay2 := NewLayout(config.Baseline())
	if lay2.Geo != nil {
		t.Error("baseline layout has a Merkle geometry")
	}
}

func TestTimingHitVsMiss(t *testing.T) {
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	r1 := m.Access(0, 0x40, false)
	if !r1.L2Miss {
		t.Fatal("cold access not an L2 miss")
	}
	if r1.DataReady < dram.LatencyCycles {
		t.Errorf("miss data ready at %d, faster than memory latency", r1.DataReady)
	}
	r2 := m.Access(r1.DataReady, 0x40, false)
	if r2.L2Miss {
		t.Fatal("second access missed")
	}
	if r2.DataReady != r1.DataReady+cfg.L1.LatencyCycles {
		t.Errorf("hit latency = %d", r2.DataReady-r1.DataReady)
	}
}

func TestCounterModeOverlapsDecryption(t *testing.T) {
	// With a counter-cache hit, counter-mode decryption must be roughly as
	// fast as no encryption; direct encryption pays the AES latency after
	// data arrival (Figure 1).
	mk := func(enc config.EncryptionMode) uint64 {
		cfg := smallCfg()
		cfg.Functional = false
		cfg.Enc = enc
		cfg.Auth = config.AuthNone
		cfg.AuthenticateCounters = false
		m := mustSystem(t, cfg)
		// Warm the counter cache with a first access.
		r := m.Access(0, 0x40, false)
		r = m.Access(r.DataReady+100, 0x1040, false) // same counter block page? different page, still fine
		r2 := m.Access(r.DataReady+5000, 0x80, false)
		return r2.DataReady - (r.DataReady + 5000)
	}
	plain := mk(config.EncNone)
	split := mk(config.EncCounterSplit)
	direct := mk(config.EncDirect)
	if direct <= plain+70 {
		t.Errorf("direct (%d) not ~AES latency slower than plain (%d)", direct, plain)
	}
	if split >= direct {
		t.Errorf("split (%d) not faster than direct (%d)", split, direct)
	}
	if split > plain+20 {
		t.Errorf("split with counter hit (%d) much slower than plain (%d)", split, plain)
	}
}

func TestFunctionalRoundTrip(t *testing.T) {
	m := mustSystem(t, smallCfg())
	msg := []byte("the quick brown fox jumps over the lazy dog 0123456789 ABCDEF!")
	if _, err := m.WriteBytes(0, 0x2000, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := m.ReadBytes(1000, 0x2000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("on-chip read = %q", got)
	}
	// Force everything off-chip, then read back through decryption.
	m.Drain(2000)
	if _, err := m.ReadBytes(3000, 0x2000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("off-chip round trip = %q", got)
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("tamper events on honest run: %d", n)
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	m := mustSystem(t, smallCfg())
	msg := bytes.Repeat([]byte("secret! "), 8)
	m.WriteBytes(0, 0x3000, msg)
	m.Drain(100)
	var ct [64]byte
	m.Controller().DRAM().ReadBlock(0x3000, ct[:])
	if bytes.Contains(ct[:], []byte("secret")) {
		t.Fatal("plaintext visible in DRAM")
	}
	if isZero(ct[:]) {
		t.Fatal("ciphertext is zero")
	}
}

func TestFunctionalRoundTripAllSchemes(t *testing.T) {
	encs := []config.EncryptionMode{config.EncNone, config.EncDirect,
		config.EncCounterMono, config.EncCounterSplit, config.EncCounterGlobal}
	auths := []config.AuthMode{config.AuthNone, config.AuthSHA1, config.AuthGCM}
	for _, enc := range encs {
		for _, auth := range auths {
			cfg := smallCfg()
			cfg.Enc = enc
			cfg.Auth = auth
			if auth == config.AuthNone {
				cfg.AuthenticateCounters = false
			}
			name := cfg.SchemeName()
			t.Run(name, func(t *testing.T) {
				m := mustSystem(t, cfg)
				rng := rand.New(rand.NewSource(7))
				data := make([]byte, 4096)
				rng.Read(data)
				if _, err := m.WriteBytes(0, 0x8000, data); err != nil {
					t.Fatal(err)
				}
				m.Drain(500)
				got := make([]byte, len(data))
				if _, err := m.ReadBytes(1000, 0x8000, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: round trip corrupted", name)
				}
				if n := m.Controller().Stats.TamperDetected; n != 0 {
					t.Fatalf("%s: spurious tamper: %d", name, n)
				}
			})
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{0xAA}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.FlipBit(0x1000, 13)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x1000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("bit flip not detected")
	}
	tampers := m.Controller().Tampers()
	if len(tampers) == 0 || tampers[0].Addr != 0x1000 {
		t.Fatalf("tamper log = %+v", tampers)
	}
}

func TestSpliceDetected(t *testing.T) {
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{1}, 64))
	m.WriteBytes(0, 0x2000, bytes.Repeat([]byte{2}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.Splice(0x1000, 0x2000)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x2000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("splice not detected")
	}
}

func TestDataReplayDetected(t *testing.T) {
	// Roll (data block) back to an old value while its MAC has moved on:
	// the classic replay the Merkle tree exists to stop.
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{1}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.Record(0x1000)
	m.WriteBytes(200, 0x1000, bytes.Repeat([]byte{9}, 64))
	m.Drain(300)
	atk.Replay(0x1000)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x1000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("data replay not detected")
	}
}

func TestPageReencryptionPreservesData(t *testing.T) {
	cfg := smallCfg()
	cfg.MinorBits = 2 // minors wrap after 4 write-backs: fast overflow
	m := mustSystem(t, cfg)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64) }
	// Write several blocks of one encryption page, then rewrite one block
	// repeatedly to force minor overflow and page re-encryption.
	for i := 0; i < 8; i++ {
		m.WriteBytes(0, uint64(0x4000+i*64), payload(i))
	}
	for w := 0; w < 12; w++ {
		m.WriteBytes(uint64(1000*w), 0x4000, payload(0))
		m.Drain(uint64(1000*w + 500))
	}
	if m.Controller().RSRs().Stats.PageReencs == 0 {
		t.Fatal("no page re-encryption happened")
	}
	// All blocks must still decrypt correctly.
	buf := make([]byte, 64)
	for i := 0; i < 8; i++ {
		if _, err := m.ReadBytes(100000, uint64(0x4000+i*64), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload(i)) {
			t.Fatalf("block %d corrupted after page re-encryption", i)
		}
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("spurious tamper during re-encryption: %d", n)
	}
}

// TestPageReencryptionDirtiesResidentBlocks: a page re-encryption leaves
// a block of the page that is in the L2 to its lazy path (Section 4.2):
// the block is dirtied, so its natural write-back re-encrypts it under the
// new major counter. Here the page's other block stays resident and clean
// while the first one overflows its minor counter on write-backs the L2's
// set conflicts make, and is then evicted and read back. Without the
// dirtying, memory keeps it under the old counter and the read fails
// authentication.
func TestPageReencryptionDirtiesResidentBlocks(t *testing.T) {
	cfg := smallCfg()
	cfg.MinorBits = 2
	m := mustSystem(t, cfg)
	const a, b = 0x4000, 0x4040 // one encryption page, different L2 sets
	setStride := uint64(cfg.L2.SizeBytes / cfg.L2.Ways)
	want := bytes.Repeat([]byte{0xB0}, 64)
	m.WriteBytes(0, b, want)
	m.Drain(100)
	now := uint64(1000)
	buf := make([]byte, 64)
	for w := 0; w < 8; w++ {
		m.ReadBytes(now, b, buf)
		m.WriteBytes(now, a, bytes.Repeat([]byte{byte(w)}, 64))
		for k := uint64(1); k <= 6; k++ {
			m.ReadBytes(now, a+k*setStride, buf)
		}
		now += 1000
	}
	if m.Controller().RSRs().Stats.PageReencs == 0 {
		t.Fatal("no page re-encryption happened")
	}
	for k := uint64(1); k <= 6; k++ {
		m.ReadBytes(now, b+k*setStride, buf)
	}
	if m.L2().Contains(b) {
		t.Fatal("block B is still resident; the read below would not reach memory")
	}
	m.ReadBytes(now+1000, b, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("block B corrupted after its page was re-encrypted")
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("spurious tamper after page re-encryption: %d", n)
	}
}

func TestMonoOverflowWholeMemoryReencrypt(t *testing.T) {
	cfg := smallCfg()
	cfg.Enc = config.EncCounterMono
	cfg.MonoCounterBits = 8
	m := mustSystem(t, cfg)
	m.WriteBytes(0, 0x5000, bytes.Repeat([]byte{0x77}, 64))
	m.WriteBytes(0, 0x9000, bytes.Repeat([]byte{0x33}, 64))
	m.Drain(10)
	// 256 write-backs of one block wrap its 8-bit counter.
	for w := 0; w < 256; w++ {
		m.WriteBytes(uint64(100*w), 0x5000, bytes.Repeat([]byte{byte(w)}, 64))
		m.Drain(uint64(100*w + 50))
	}
	st := m.Controller().Stats
	if st.FullReencEvents == 0 {
		t.Fatal("no whole-memory re-encryption")
	}
	if st.FreezeCycles == 0 {
		t.Fatal("freeze cycles not accounted")
	}
	// Data written before the key change must still read back.
	buf := make([]byte, 64)
	m.ReadBytes(1<<20, 0x9000, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x33}, 64)) {
		t.Fatal("pre-overflow data corrupted by key change")
	}
	if st.TamperDetected != 0 {
		t.Fatalf("spurious tamper: %d", st.TamperDetected)
	}
}

// TestMonoOverflowRebuildKeepsMacCacheNodes: the tree rebuild after a
// whole-memory re-encryption rewrites the MACs held in on-chip nodes. With
// a dedicated MAC cache those nodes are not in the L2, and they must still
// leave the chip dirty, or memory keeps the old epoch's MACs.
func TestMonoOverflowRebuildKeepsMacCacheNodes(t *testing.T) {
	cfg := smallCfg()
	cfg.Enc = config.EncCounterMono
	cfg.MonoCounterBits = 8
	cfg.MacCacheBytes = 4 << 10
	m := mustSystem(t, cfg)
	payload := func(a uint64) []byte { return bytes.Repeat([]byte{byte(a>>12) | 1}, 64) }
	now := uint64(0)
	for i := uint64(0); i < 256; i++ {
		m.WriteBytes(now, i<<12, payload(i<<12))
		now += 100
	}
	m.Drain(now)
	// Each round evicts 0x5000 from its L2 set, so its counter wraps on
	// write-backs the caches make themselves, with MAC nodes on-chip.
	buf := make([]byte, 64)
	setStride := uint64(cfg.L2.SizeBytes / cfg.L2.Ways)
	for w := 0; w < 300; w++ {
		m.WriteBytes(now, 0x5000, payload(0x5000))
		for k := uint64(1); k <= 6; k++ {
			m.ReadBytes(now, 0x5000+k*setStride, buf)
		}
		now += 1000
	}
	if m.Controller().Stats.FullReencEvents == 0 {
		t.Fatal("no whole-memory re-encryption")
	}
	// Cycle the rebuilt nodes out of the MAC cache, then read everything.
	for k := uint64(0); k < 2000; k++ {
		if a := k*192 + 64; a%4096 != 0 {
			m.ReadBytes(now, a, buf)
		}
		now += 100
	}
	for i := uint64(0); i < 256; i++ {
		m.ReadBytes(now, i<<12, buf)
		if !bytes.Equal(buf, payload(i<<12)) {
			t.Fatalf("block %#x corrupted", i<<12)
		}
		now += 100
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("spurious tamper: %d", n)
	}
}

func TestSafeVsLazyAuthTiming(t *testing.T) {
	// AuthDone must trail DataReady when authentication is on and a miss
	// walks the tree.
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	r := m.Access(0, 0x40, false)
	if r.AuthDone < r.DataReady {
		t.Errorf("authDone %d before dataReady %d", r.AuthDone, r.DataReady)
	}
	if r.AuthDone == r.DataReady {
		t.Error("authentication appears free on a cold miss")
	}
}

func TestParallelAuthFasterThanSequential(t *testing.T) {
	run := func(parallel bool) uint64 {
		cfg := smallCfg()
		cfg.Functional = false
		cfg.ParallelAuth = parallel
		m := mustSystem(t, cfg)
		var worst uint64
		// Scatter accesses so the Merkle walk misses at several levels.
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 12713 * 64 % cfg.MemBytes
			r := m.Access(uint64(i)*4000, m.L1().BlockAddr(addr), false)
			if d := r.AuthDone - r.DataReady; d > worst {
				worst = d
			}
		}
		return worst
	}
	par := run(true)
	seq := run(false)
	if par >= seq {
		t.Errorf("parallel worst-case auth lag (%d) not better than sequential (%d)", par, seq)
	}
}

func TestWriteBytesRequiresFunctional(t *testing.T) {
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	if _, err := m.WriteBytes(0, 0, []byte{1}); err == nil {
		t.Fatal("WriteBytes on timing-only system succeeded")
	}
	if _, err := m.ReadBytes(0, 0, make([]byte, 1)); err == nil {
		t.Fatal("ReadBytes on timing-only system succeeded")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.MACBits = 48
	if _, err := NewMemSystem(cfg); err == nil {
		t.Fatal("invalid MAC size accepted")
	}
}
