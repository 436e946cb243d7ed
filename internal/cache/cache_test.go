package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B = 512B: easy to reason about.
	return New(Config{Name: "test", SizeBytes: 512, Ways: 2, BlockBytes: 64})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "blk", SizeBytes: 512, Ways: 2, BlockBytes: 48},
		{Name: "div", SizeBytes: 500, Ways: 2, BlockBytes: 64},
		{Name: "sets", SizeBytes: 3 * 128, Ways: 2, BlockBytes: 64},
		{Name: "ways", SizeBytes: 16 * 64, Ways: 16, BlockBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s unexpectedly valid", c.Name)
		}
	}
	good := Config{Name: "l1", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 100, Ways: 3, BlockBytes: 7})
}

func TestMissFillHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000, false) {
		t.Fatal("hit in empty cache")
	}
	if _, ev := c.Fill(0x1000, false); ev {
		t.Fatal("eviction from empty set")
	}
	if !c.Lookup(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x103F, false) {
		t.Fatal("same block, different offset missed")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("adjacent block hit")
	}
	s := c.Stats
	if s.Reads != 4 || s.ReadMisses != 2 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteMarksDirtyAndEvictionReportsIt(t *testing.T) {
	c := smallCache()
	// Three blocks mapping to set 0 (stride = sets*block = 256).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Fill(a, false)
	c.Lookup(a, true) // dirty a
	c.Fill(b, false)
	ev, evicted := c.Fill(d, false)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	// a was written before b was filled, so a is LRU and must be evicted
	// dirty.
	if ev.Addr != a || !ev.Dirty {
		t.Errorf("victim = %+v, want dirty %#x", ev, a)
	}
	// Next victim is b, which was never written: clean.
	ev, evicted = c.Fill(768, false)
	if !evicted || ev.Addr != b || ev.Dirty {
		t.Errorf("second victim = %+v (evicted=%v), want clean %#x", ev, evicted, b)
	}
	if c.Stats.DirtyEvicts != 1 {
		t.Errorf("dirty evicts = %d, want 1", c.Stats.DirtyEvicts)
	}
}

func TestLRUOrder(t *testing.T) {
	c := smallCache()
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // a becomes MRU
	ev, evicted := c.Fill(d, false)
	if !evicted || ev.Addr != b {
		t.Errorf("victim = %+v, want %#x (LRU)", ev, b)
	}
}

func TestFillResidentPanics(t *testing.T) {
	// The panic fires wherever the block sits, also behind an invalid way
	// that the fill would otherwise take, and it changes nothing.
	for _, hole := range []bool{false, true} {
		c := smallCache()
		c.Fill(0, false)
		c.Fill(256, false) // same set, second way
		if hole {
			c.Invalidate(0)
		}
		before := c.Stats
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("hole=%v: double fill did not panic", hole)
				}
			}()
			c.Fill(256, false)
		}()
		if c.Stats != before || c.Line(256) != 1 {
			t.Errorf("hole=%v: panicking fill changed the cache: stats %+v, line %d", hole, c.Stats, c.Line(256))
		}
	}
}

func TestContainsNoSideEffects(t *testing.T) {
	c := smallCache()
	c.Fill(0, false)
	c.Fill(256, false)
	before := c.Stats
	if !c.Contains(0) || c.Contains(512) {
		t.Error("Contains wrong")
	}
	if c.Stats != before {
		t.Error("Contains mutated stats")
	}
	// Contains must not refresh LRU: 0 is still LRU and gets evicted.
	c.Contains(0)
	ev, _ := c.Fill(512, false)
	if ev.Addr != 0 {
		t.Errorf("victim = %#x, want 0 (Contains must not touch LRU)", ev.Addr)
	}
}

func TestLine(t *testing.T) {
	c := smallCache()
	if c.Lines() != 8 {
		t.Fatalf("Lines = %d, want 8", c.Lines())
	}
	if c.Line(0) != -1 {
		t.Error("absent block has a line")
	}
	c.Fill(0, false)
	c.Fill(256, false) // same set
	before := c.Stats
	l0, l1 := c.Line(0), c.Line(256)
	if l0 < 0 || l1 < 0 || l0 >= c.Lines() || l1 >= c.Lines() || l0 == l1 {
		t.Fatalf("lines = %d, %d, want two distinct lines in [0, 8)", l0, l1)
	}
	if c.Stats != before {
		t.Error("Line mutated stats")
	}
	// Line must not refresh LRU: 0 is still LRU, and its line goes to
	// the block that displaces it.
	c.Fill(512, false)
	if c.Line(0) != -1 || c.Line(512) != l0 || c.Line(256) != l1 {
		t.Errorf("after eviction: lines 0→%d 512→%d 256→%d, want -1, %d, %d",
			c.Line(0), c.Line(512), c.Line(256), l0, l1)
	}
}

func TestSetDirtyAndCleanLine(t *testing.T) {
	c := smallCache()
	if c.SetDirty(0) {
		t.Error("SetDirty on absent block returned true")
	}
	c.Fill(0, false)
	if !c.SetDirty(0) {
		t.Error("SetDirty on resident block returned false")
	}
	_, dirty := c.Invalidate(0)
	if !dirty {
		t.Error("block not dirty after SetDirty")
	}
	c.Fill(0, true)
	if !c.CleanLine(0) {
		t.Error("CleanLine on resident block returned false")
	}
	_, dirty = c.Invalidate(0)
	if dirty {
		t.Error("block dirty after CleanLine")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Fill(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(0x40) {
		t.Error("block present after Invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("double Invalidate reported present")
	}
}

func TestForEachAndResidentBlocks(t *testing.T) {
	c := smallCache()
	addrs := []uint64{0, 64, 128, 256}
	for _, a := range addrs {
		c.Fill(a, a == 128)
	}
	seen := map[uint64]bool{}
	c.ForEach(func(addr uint64, dirty bool) {
		seen[addr] = dirty
	})
	if len(seen) != len(addrs) {
		t.Fatalf("ForEach visited %d blocks, want %d", len(seen), len(addrs))
	}
	for _, a := range addrs {
		d, ok := seen[a]
		if !ok {
			t.Errorf("block %#x not visited", a)
		}
		if d != (a == 128) {
			t.Errorf("block %#x dirty = %v", a, d)
		}
	}
	if c.ResidentBlocks() != 4 {
		t.Errorf("ResidentBlocks = %d", c.ResidentBlocks())
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Property: for any fill sequence, evicted addresses are block-aligned
	// addresses that were previously filled and not yet evicted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "p", SizeBytes: 2048, Ways: 4, BlockBytes: 64})
		live := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 64 * uint64(rng.Intn(8)+1)
			blk := c.BlockAddr(addr)
			if !c.Lookup(blk, rng.Intn(2) == 0) {
				ev, evicted := c.Fill(blk, false)
				if evicted {
					if !live[ev.Addr] {
						return false
					}
					delete(live, ev.Addr)
				}
				live[blk] = true
			}
		}
		// Every live block must be reported resident.
		for a := range live {
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "cap", SizeBytes: 1024, Ways: 2, BlockBytes: 64})
		maxBlocks := 1024 / 64
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(1 << 14))
			blk := c.BlockAddr(addr)
			if !c.Lookup(blk, false) {
				c.Fill(blk, false)
			}
			if c.ResidentBlocks() > maxBlocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 1 {
		t.Error("empty stats hit rate != 1")
	}
	s = Stats{Reads: 8, Writes: 2, ReadMisses: 1, WriteMisses: 1}
	if got := s.HitRate(); got != 0.8 {
		t.Errorf("hit rate = %v, want 0.8", got)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 1 << 20, Ways: 8, BlockBytes: 64})
	for a := uint64(0); a < 1<<20; a += 64 {
		c.Fill(a, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%16384)*64, false)
	}
}

func TestPinProtectsFromReplacement(t *testing.T) {
	c := smallCache() // 4 sets x 2 ways
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Fill(a, false)
	c.Fill(b, false)
	if !c.Pin(a) {
		t.Fatal("Pin on resident block returned false")
	}
	// a is LRU but pinned: b must be the victim.
	ev, evicted := c.Fill(d, false)
	if !evicted || ev.Addr != b {
		t.Errorf("victim = %+v, want %#x (pinned a protected)", ev, b)
	}
	if !c.Contains(a) {
		t.Error("pinned block evicted")
	}
	// After unpinning, a is evictable again.
	if !c.Unpin(a) {
		t.Fatal("Unpin returned false")
	}
	ev, _ = c.Fill(768, false)
	if ev.Addr != a {
		t.Errorf("victim = %#x, want unpinned %#x", ev.Addr, a)
	}
}

func TestPinAbsentBlock(t *testing.T) {
	c := smallCache()
	if c.Pin(0x40) {
		t.Error("Pin on absent block returned true")
	}
	if c.Unpin(0x40) {
		t.Error("Unpin on absent block returned true")
	}
}

func TestAllWaysPinnedPanics(t *testing.T) {
	c := smallCache() // 2 ways
	c.Fill(0, false)
	c.Fill(256, false)
	c.Pin(0)
	c.Pin(256)
	defer func() {
		if recover() == nil {
			t.Fatal("fill into fully pinned set did not panic")
		}
	}()
	c.Fill(512, false)
}

func TestInvalidateClearsPin(t *testing.T) {
	c := smallCache()
	c.Fill(0, false)
	c.Pin(0)
	c.Invalidate(0)
	// Refill: the line must be a fresh unpinned line.
	c.Fill(0, false)
	c.Fill(256, false)
	ev, evicted := c.Fill(512, false)
	if !evicted || ev.Addr != 0 {
		t.Errorf("stale pin survived invalidate: victim %+v", ev)
	}
}
