package core

import (
	"bytes"
	"math/rand"
	"testing"

	"secmem/internal/config"
	"secmem/internal/dram"
)

func macCacheCfg() config.SystemConfig {
	cfg := smallCfg()
	cfg.MacCacheBytes = 4 << 10
	return cfg
}

func TestMacCacheFunctionalRoundTrip(t *testing.T) {
	m := mustSystem(t, macCacheCfg())
	if m.Controller().MacCache() == nil {
		t.Fatal("dedicated MAC cache not created")
	}
	rng := rand.New(rand.NewSource(3))
	shadow := map[uint64][]byte{}
	now := uint64(0)
	for i := 0; i < 200; i++ {
		a := uint64(rng.Intn(512)) * 64
		data := make([]byte, 64)
		rng.Read(data)
		if _, err := m.WriteBytes(now, a, data); err != nil {
			t.Fatal(err)
		}
		shadow[a] = data
		now += 400
		if i%50 == 49 {
			m.Drain(now)
		}
	}
	m.Drain(now)
	buf := make([]byte, 64)
	for a, want := range shadow {
		if _, err := m.ReadBytes(now, a, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %#x corrupted under dedicated MAC cache", a)
		}
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("false positives: %d", n)
	}
	// Tree nodes must actually live in the dedicated cache, not the L2.
	macResident := 0
	m.Controller().MacCache().ForEach(func(uint64, bool) { macResident++ })
	if macResident == 0 {
		t.Error("dedicated MAC cache unused")
	}
	lay := m.Controller().Layout()
	m.L2().ForEach(func(addr uint64, _ bool) {
		if lay.RegionOf(addr) == RegionMac {
			t.Errorf("MAC node %#x leaked into the L2", addr)
		}
	})
}

func TestMacCacheStillDetectsTampering(t *testing.T) {
	m := mustSystem(t, macCacheCfg())
	m.WriteBytes(0, 0x2000, bytes.Repeat([]byte{0x5A}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.FlipBit(0x2000, 17)
	m.ReadBytes(1000, 0x2000, make([]byte, 64))
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("tamper undetected with dedicated MAC cache")
	}
}

// TestMacCacheDrainKeepsParentTrusted: Drain must not leave a Merkle node
// resident in the MAC cache once its trusted on-chip copy is gone, or the
// next write-back under it adopts the node's memory image unverified. Here
// the attacker flips the slot that holds B's MAC in the parent of A and B;
// the write-back of A must overwrite it from the trusted copy rather than
// launder it into the tree, so B still reads back clean.
func TestMacCacheDrainKeepsParentTrusted(t *testing.T) {
	m := mustSystem(t, macCacheCfg())
	const a, b = 0x2000, 0x2040
	geo := m.Controller().Layout().Geo
	parent, slot, _ := geo.Parent(b)
	if p, _, _ := geo.Parent(a); p != parent {
		t.Fatalf("%#x and %#x are not siblings", a, b)
	}
	want := bytes.Repeat([]byte{0xB0}, 64)
	m.WriteBytes(0, a, bytes.Repeat([]byte{0xA0}, 64))
	m.WriteBytes(100, b, want)
	m.Drain(200)
	m.WriteBytes(1000, a, bytes.Repeat([]byte{0xA1}, 64))
	lo, _ := geo.MacOffset(slot)
	dram.NewAttacker(m.Controller().DRAM()).FlipBit(parent, lo*8)
	m.Drain(2000)
	buf := make([]byte, 64)
	m.ReadBytes(3000, b, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("block B corrupted")
	}
	if tampers := m.Controller().Tampers(); len(tampers) != 0 {
		t.Fatalf("untouched block flagged: %+v", tampers)
	}
}

func TestMacCacheReducesL2DataPressure(t *testing.T) {
	// With tree nodes out of the L2, data should miss less: the effect the
	// paper predicts when it warns about codes sharing the data cache.
	run := func(macKB int) uint64 {
		cfg := smallCfg()
		cfg.Functional = false
		cfg.MacCacheBytes = macKB << 10
		m := mustSystem(t, cfg)
		rng := rand.New(rand.NewSource(12))
		now := uint64(0)
		var misses uint64
		for i := 0; i < 20000; i++ {
			a := uint64(rng.Intn(512)) * 64 // ~32 KB working set vs 8 KB L2
			r := m.Access(now, a, rng.Intn(4) == 0)
			if r.L2Miss {
				misses++
			}
			now += 60
		}
		return misses
	}
	shared := run(0)
	dedicated := run(8)
	if dedicated >= shared {
		t.Errorf("dedicated MAC cache did not reduce data misses: %d vs %d shared",
			dedicated, shared)
	}
}
