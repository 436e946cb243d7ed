package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secmem/internal/config"
	"secmem/internal/dram"
)

// TestRandomTamperAlwaysDetected is the failure-injection sweep: write a
// random working set, drain, corrupt a random *written* data or counter
// block in DRAM, and read everything back. Authentication must fire.
func TestRandomTamperAlwaysDetected(t *testing.T) {
	if err := quick.Check(tamperDetected, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestTamperSweepOnEvictedParents runs the sweep on the first five seeds
// of 0-19,999 whose write-backs, on smallCfg's 4-way L2, fetch a parent
// node that its own authentication walk evicts before updateParentMac
// dirties it. Without the re-install they panic: the parent has no
// on-chip copy to take the child's MAC.
func TestTamperSweepOnEvictedParents(t *testing.T) {
	for _, seed := range []int64{1131, 1255, 1455, 1639, 1670} {
		if !tamperDetected(seed) {
			t.Errorf("seed %d: tamper not detected", seed)
		}
	}
}

// tamperDetected runs one seed of the sweep and reports whether
// authentication fired.
func tamperDetected(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	m := mustSystemQ(smallCfg())
	// Write 32 random blocks scattered over 256 KB.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		a := uint64(rng.Intn(4096)) * 64
		data := make([]byte, 64)
		rng.Read(data)
		if _, err := m.WriteBytes(uint64(i)*500, a, data); err != nil {
			return false
		}
		addrs = append(addrs, a)
	}
	m.Drain(100_000)

	// Corrupt one written block: either a data block or the counter
	// block of one of them.
	atk := dram.NewAttacker(m.Controller().DRAM())
	victim := addrs[rng.Intn(len(addrs))]
	if rng.Intn(2) == 0 {
		victim = m.Controller().Counters().CounterBlockAddr(victim)
		// Drain leaves counter blocks resident (clean) in the counter
		// cache; churn it so the corrupted block is actually refetched
		// from memory — otherwise the tamper is unexercised, not
		// undetected.
		for i := uint64(0); i < 64; i++ {
			m.ReadBytes(150_000+i*300, 0x40000+i*4096, make([]byte, 8))
		}
	}
	atk.FlipBit(victim, rng.Intn(512))

	// Read everything back; detection must fire somewhere.
	buf := make([]byte, 64)
	for i, a := range addrs {
		m.ReadBytes(uint64(200_000+i*500), a, buf)
	}
	return m.Controller().Stats.TamperDetected > 0
}

// TestFunctionalReadBack checks read-back through the serial Merkle walk in
// two workloads no other test covers: 48 scattered writes read back after
// metadata-cache churn (honest, then with one bit flipped in DRAM, over
// seeds 1-6), and 33 blocks read back after an 8-bit monolithic counter
// wraps and forces a whole-memory re-encryption plus tree rebuild.
func TestFunctionalReadBack(t *testing.T) {
	t.Run("BitFlipSeeds", func(t *testing.T) {
		run := func(seed int64, attack bool) (map[uint64][]byte, map[uint64][]byte, uint64, []Tamper) {
			rng := rand.New(rand.NewSource(seed))
			m := mustSystem(t, smallCfg())
			var addrs []uint64
			want := map[uint64][]byte{}
			for i := 0; i < 48; i++ {
				a := uint64(rng.Intn(4096)) * 64
				data := make([]byte, 64)
				rng.Read(data)
				if _, err := m.WriteBytes(uint64(i)*500, a, data); err != nil {
					t.Fatalf("seed %d: write: %v", seed, err)
				}
				addrs = append(addrs, a)
				want[a] = data
			}
			m.Drain(100_000)
			// Churn the metadata caches so read-back walks real off-chip chains.
			for i := uint64(0); i < 64; i++ {
				m.ReadBytes(150_000+i*300, 0x40000+i*4096, make([]byte, 8))
			}
			var victim uint64
			if attack {
				victim = addrs[rng.Intn(len(addrs))]
				dram.NewAttacker(m.Controller().DRAM()).FlipBit(victim, rng.Intn(512))
			}
			got := map[uint64][]byte{}
			for i, a := range addrs {
				buf := make([]byte, 64)
				m.ReadBytes(uint64(200_000+i*500), a, buf)
				got[a] = buf
			}
			return want, got, victim, m.Controller().Tampers()
		}
		for seed := int64(1); seed <= 6; seed++ {
			want, got, _, tampers := run(seed, false)
			if len(tampers) != 0 {
				t.Fatalf("seed %d: honest run logged tampers %v", seed, tampers)
			}
			for a, w := range want {
				if !bytes.Equal(got[a], w) {
					t.Fatalf("seed %d: block %#x read back wrong", seed, a)
				}
			}
			_, _, victim, tampers := run(seed, true)
			if len(tampers) == 0 || tampers[0].Addr != victim || tampers[0].Region != RegionData {
				t.Fatalf("seed %d: flipped block %#x, tamper log %v", seed, victim, tampers)
			}
			if _, _, _, again := run(seed, true); !reflect.DeepEqual(again, tampers) {
				t.Fatalf("seed %d: tamper log %v differs on rerun: %v", seed, tampers, again)
			}
		}
	})
	t.Run("Mono8Wrap", func(t *testing.T) {
		cfg := smallCfg()
		cfg.Enc = config.EncCounterMono
		cfg.MonoCounterBits = 8
		m := mustSystem(t, cfg)
		want := map[uint64]byte{}
		data := make([]byte, 64)
		// 300 write-backs of one block wrap its 8-bit counter at least once;
		// 32 neighbouring blocks are rewritten in between.
		for i := 0; i < 300; i++ {
			data[0] = byte(i)
			for _, a := range []uint64{4096, uint64(64 * (i % 32))} {
				if _, err := m.WriteBytes(uint64(i)*2000, a, data); err != nil {
					t.Fatalf("write %#x: %v", a, err)
				}
				want[a] = byte(i)
			}
			m.Drain(uint64(i)*2000 + 1500)
		}
		if m.Controller().Stats.FullReencEvents == 0 {
			t.Fatal("no whole-memory re-encryption; the rebuild path is unexercised")
		}
		buf := make([]byte, 64)
		for a, w := range want {
			m.ReadBytes(1_000_000+a, a, buf)
			if buf[0] != w || !isZero(buf[1:]) {
				t.Fatalf("block %#x read back %x, want first byte %#x", a, buf[:4], w)
			}
		}
		if n := m.Controller().Stats.TamperDetected; n != 0 {
			t.Fatalf("%d spurious tamper(s) after re-encryption", n)
		}
	})
}

// mustSystemQ is mustSystem without the *testing.T, for quick.Check bodies.
func mustSystemQ(cfg config.SystemConfig) *MemSystem {
	m, err := NewMemSystem(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// TestHonestWorkloadNeverTrips is the complement: random workloads with
// evictions, page re-encryptions, and counter traffic must never produce a
// false positive.
func TestHonestWorkloadNeverTrips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallCfg()
		cfg.MinorBits = 3 // page re-encryptions in the mix
		m := mustSystemQ(cfg)
		now := uint64(0)
		shadow := map[uint64][]byte{}
		for i := 0; i < 300; i++ {
			a := uint64(rng.Intn(512)) * 64
			if rng.Intn(2) == 0 {
				data := make([]byte, 64)
				rng.Read(data)
				if _, err := m.WriteBytes(now, a, data); err != nil {
					return false
				}
				shadow[a] = data
			} else if want, ok := shadow[a]; ok {
				got := make([]byte, 64)
				if _, err := m.ReadBytes(now, a, got); err != nil {
					return false
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
			now += 400
			if i%50 == 49 {
				m.Drain(now)
				now += 10_000
			}
		}
		return m.Controller().Stats.TamperDetected == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestShadowConsistencyAcrossSchemes runs the same random workload through
// every protection scheme and checks all reads against a shadow memory.
func TestShadowConsistencyAcrossSchemes(t *testing.T) {
	schemes := []struct {
		enc  config.EncryptionMode
		auth config.AuthMode
	}{
		{config.EncCounterSplit, config.AuthGCM},
		{config.EncCounterMono, config.AuthSHA1},
		{config.EncDirect, config.AuthSHA1},
		{config.EncCounterGlobal, config.AuthGCM},
	}
	for _, s := range schemes {
		cfg := smallCfg()
		cfg.Enc = s.enc
		cfg.Auth = s.auth
		m := mustSystemQ(cfg)
		rng := rand.New(rand.NewSource(99))
		shadow := map[uint64][]byte{}
		now := uint64(0)
		for i := 0; i < 400; i++ {
			a := uint64(rng.Intn(1024)) * 64
			if rng.Intn(3) != 0 {
				data := make([]byte, 64)
				rng.Read(data)
				m.WriteBytes(now, a, data)
				shadow[a] = data
			} else if want, ok := shadow[a]; ok {
				got := make([]byte, 64)
				m.ReadBytes(now, a, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: shadow mismatch at %#x op %d", cfg.SchemeName(), a, i)
				}
			}
			now += 300
			if i%100 == 99 {
				m.Drain(now)
			}
		}
		if n := m.Controller().Stats.TamperDetected; n != 0 {
			t.Errorf("%s: %d false tamper positives", cfg.SchemeName(), n)
		}
	}
}
