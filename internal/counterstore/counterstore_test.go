package counterstore

import (
	"runtime"
	"testing"
	"testing/quick"

	"secmem/internal/cache"
	"secmem/internal/config"
)

func regions() Regions {
	return Regions{
		DataBytes:  1 << 20,
		DirectBase: 1 << 20,
		DerivBase:  3 << 20,
	}
}

// macBase is where the tests' Merkle MAC blocks start: metadata between
// the direct counters and the derivative counters.
const macBase uint64 = 2 << 20

// snc is the 8-set counter cache of the tests.
func snc() cache.Config { return cache.Config{Name: "snc", SizeBytes: 4096, Ways: 8, BlockBytes: 64} }

func splitConfig() Config {
	return Config{Org: OrgSplit, MinorBits: 7, PageBlocks: 64, Regions: regions(), Cache: snc()}
}

func monoConfig(bits int) Config {
	return Config{Org: OrgMono, Bits: bits, Regions: regions(), Cache: snc()}
}

func splitStore() *Store { return New(splitConfig()) }

func monoStore(bits int) *Store { return New(monoConfig(bits)) }

func TestSplitValueConcatenatesMajorMinor(t *testing.T) {
	s := splitStore()
	const blk = 0x2040
	if got := s.Value(blk); got != 0 {
		t.Fatalf("initial value = %d", got)
	}
	v, ov := s.Increment(blk)
	if v != 1 || ov.Kind != NoOverflow {
		t.Fatalf("first increment = (%d, %v)", v, ov)
	}
	s.BumpMajor(s.PageAddr(blk))
	if got := s.Value(blk); got != 1<<7|1 {
		t.Errorf("value after major bump = %d, want %d", got, 1<<7|1)
	}
	if got := s.ValueWithMajor(blk, 0); got != 1 {
		t.Errorf("ValueWithMajor(0) = %d, want 1", got)
	}
}

func TestSplitMinorOverflowTriggersPageReenc(t *testing.T) {
	s := splitStore()
	const blk = 64 * 100 // page 1 (blocks 64..127)
	var ov Overflow
	for i := 0; i < 127; i++ {
		_, ov = s.Increment(blk)
		if ov.Kind != NoOverflow {
			t.Fatalf("premature overflow at increment %d", i+1)
		}
	}
	_, ov = s.Increment(blk) // 128th: 7-bit minor wraps
	if ov.Kind != PageOverflow {
		t.Fatalf("no page overflow at wrap: %+v", ov)
	}
	if want := uint64(4096); ov.PageAddr != want {
		t.Errorf("page addr = %#x, want %#x", ov.PageAddr, want)
	}
	if m := s.ValueWithMajor(blk, 0); m != 0 {
		t.Errorf("minor not left at zero: %d", m)
	}
	if s.Stats.MinorOverflows != 1 {
		t.Errorf("minor overflows = %d", s.Stats.MinorOverflows)
	}
}

func TestMonoOverflow(t *testing.T) {
	s := monoStore(8)
	const blk = 0
	for i := 0; i < 255; i++ {
		if _, ov := s.Increment(blk); ov.Kind != NoOverflow {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	_, ov := s.Increment(blk)
	if ov.Kind != FullOverflow {
		t.Fatalf("256th increment: %+v", ov)
	}
	if s.Value(blk) != 0 {
		t.Errorf("counter not wrapped: %d", s.Value(blk))
	}
	if s.Stats.FullOverflows != 1 {
		t.Errorf("full overflows = %d", s.Stats.FullOverflows)
	}
}

func TestMono64NeverOverflows(t *testing.T) {
	s := monoStore(64)
	for i := 0; i < 1000; i++ {
		if _, ov := s.Increment(0); ov.Kind != NoOverflow {
			t.Fatal("64-bit counter overflowed")
		}
	}
	if s.Value(0) != 1000 {
		t.Errorf("value = %d", s.Value(0))
	}
}

func TestGlobalCounterSharedAcrossBlocks(t *testing.T) {
	s := New(Config{Org: OrgGlobal, Bits: 32, Regions: regions(), Cache: snc()})
	v1, _ := s.Increment(0)
	v2, _ := s.Increment(64)
	v3, _ := s.Increment(0)
	if v1 != 1 || v2 != 2 || v3 != 3 {
		t.Errorf("global sequence = %d,%d,%d", v1, v2, v3)
	}
	// Stored per-block values are the encryption-time snapshots.
	if s.Value(64) != 2 {
		t.Errorf("stored value = %d, want 2", s.Value(64))
	}
}

func TestCounterBlockAddrDensity(t *testing.T) {
	r := regions()
	split := splitStore()
	// Split: one counter block per 4 KB page.
	if a, b := split.CounterBlockAddr(0), split.CounterBlockAddr(4095); a != b {
		t.Error("split: same page mapped to different counter blocks")
	}
	if a, b := split.CounterBlockAddr(0), split.CounterBlockAddr(4096); a == b {
		t.Error("split: adjacent pages share a counter block")
	}
	// Mono64: 8 counters per block -> 512B of data per counter block.
	m64 := monoStore(64)
	if a, b := m64.CounterBlockAddr(0), m64.CounterBlockAddr(511); a != b {
		t.Error("mono64: blocks within 512B straddle counter blocks")
	}
	if a, b := m64.CounterBlockAddr(0), m64.CounterBlockAddr(512); a == b {
		t.Error("mono64: 512B apart share a counter block")
	}
	// Mono8: 64 counters per block -> 4 KB of data per counter block, the
	// same reach as split (which is the point of the comparison).
	m8 := monoStore(8)
	if a, b := m8.CounterBlockAddr(0), m8.CounterBlockAddr(4095); a != b {
		t.Error("mono8: 4KB of data straddles counter blocks")
	}
	// MAC blocks map to the derivative region.
	if a := split.CounterBlockAddr(macBase); a < r.DerivBase {
		t.Errorf("MAC counter at %#x, below derivative base", a)
	}
}

func TestDerivativeCountersIndependent(t *testing.T) {
	s := splitStore()
	mac := macBase + 128
	v, ov := s.Increment(mac)
	if v != 1 || ov.Kind != NoOverflow {
		t.Fatalf("deriv increment = (%d, %v)", v, ov)
	}
	if s.Stats.DerivIncrements != 1 || s.Stats.Increments != 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
	if s.Value(mac) != 1 {
		t.Errorf("deriv value = %d", s.Value(mac))
	}
}

// TestDerivativeCounterWraps: a derivative counter is the 16-bit field of
// its image, so the on-chip value wraps exactly where the memory image does.
func TestDerivativeCounterWraps(t *testing.T) {
	s := splitStore()
	mac := macBase + 128
	for i := 0; i < 1<<16; i++ {
		if _, ov := s.Increment(mac); ov.Kind != NoOverflow {
			t.Fatalf("increment %d reported %+v", i+1, ov)
		}
	}
	if v := s.Value(mac); v != 0 {
		t.Errorf("value after 65,536 increments = %d, want 0", v)
	}
	if img := s.PackBlock(s.CounterBlockAddr(mac)); img != [BlockSize]byte{} {
		t.Errorf("image after the wrap = %x, want zeros", img)
	}
}

// TestSteadyStateAllocationFree: once a counter block has been written,
// incrementing, reading, packing and unpacking its counters allocates
// nothing, on every organization, also for a block whose write-back count
// is past wideCount.
func TestSteadyStateAllocationFree(t *testing.T) {
	for _, cfg := range []Config{splitConfig(), monoConfig(8),
		{Org: OrgGlobal, Bits: 32, Regions: regions(), Cache: snc()}} {
		s := New(cfg)
		const hot = 0x80
		for i := 0; i < wideCount; i++ {
			s.Increment(hot)
		}
		blocks := []uint64{0x40, hot, 300 * 4096, macBase + 128, regions().DirectBase + 64}
		step := func() {
			for _, a := range blocks {
				s.Increment(a)
				s.Value(a)
				cb := s.CounterBlockAddr(a)
				img := s.PackBlock(cb)
				s.UnpackBlock(cb, img[:])
			}
		}
		step()
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("org %d: %v allocations per step, want 0", cfg.Org, n)
		}
		if n, blk := s.FastestCounter(); n <= wideCount || blk != hot {
			t.Errorf("org %d: fastest = (%d, %#x), want past %d at %#x", cfg.Org, n, blk, wideCount, hot)
		}
	}
}

// TestWrittenPageFootprint bounds the heap that a page's first write-back
// allocates on the default split geometry: its counter block in the
// 96-byte size class, 64 one-byte counts and its 8-byte share of a 4 KB
// pointer leaf, 168 bytes. TotalAlloc counts whole size classes and does
// not depend on GC timing. Counts of four bytes each, 96 + 256 bytes a
// page, fail it.
func TestWrittenPageFootprint(t *testing.T) {
	const pages, bound = 4096, 192
	s := New(Config{Org: OrgSplit, MinorBits: 7, PageBlocks: 64, Regions: oracleRegions(), Cache: snc()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := uint64(0); p < pages; p++ {
		s.Increment(p * 64 * BlockSize)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / pages; per > bound {
		t.Errorf("a written page allocates %d bytes, want at most %d", per, bound)
	}
}

func TestGrowthTracking(t *testing.T) {
	s := monoStore(64)
	for i := 0; i < 10; i++ {
		s.Increment(0x40)
	}
	for i := 0; i < 3; i++ {
		s.Increment(0x80)
	}
	// MAC-block increments must not count toward data growth.
	s.Increment(macBase)
	n, blk := s.FastestCounter()
	if n != 10 || blk != 0x40 {
		t.Errorf("fastest = (%d, %#x), want (10, 0x40)", n, blk)
	}
	if s.Stats.Increments != 13 {
		t.Errorf("total = %d, want 13", s.Stats.Increments)
	}
}

func TestCacheLookupHitMissHalfMiss(t *testing.T) {
	s := splitStore()
	res, _, ctrBlk := s.CacheLookup(0, 100)
	if res != Miss {
		t.Fatalf("first lookup = %v, want Miss", res)
	}
	// Fill completing at cycle 300.
	s.CacheFill(ctrBlk, 300)
	// Lookup at 200 while the fetch is outstanding: half miss ready at 300.
	res, ready, _ := s.CacheLookup(0, 200)
	if res != HalfMiss || ready != 300 {
		t.Fatalf("second lookup = (%v, %d), want (HalfMiss, 300)", res, ready)
	}
	// Lookup after completion: hit.
	res, ready, _ = s.CacheLookup(4000, 400) // same page -> same counter block
	if res != Hit || ready != 400 {
		t.Fatalf("third lookup = (%v, %d), want (Hit, 400)", res, ready)
	}
	st := s.Stats
	if st.Hits != 1 || st.HalfMisses != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 1.0/3 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
	// Lookups are not monotone in time: once one has seen the fetch
	// complete, an earlier-stamped lookup is a hit too.
	res, ready, _ = s.CacheLookup(0, 200)
	if res != Hit || ready != 200 {
		t.Fatalf("lookup at 200 after completion = (%v, %d), want (Hit, 200)", res, ready)
	}
	// Counter blocks of every eighth page share a set of the 8-set cache.
	// evict fills fresh ones into it until blk has left.
	page := uint64(0)
	evict := func(blk, fillDone uint64) (last uint64) {
		for s.Cache().Contains(blk) {
			page += 8
			_, _, last = s.CacheLookup(page*64*BlockSize, 500)
			s.CacheFill(last, fillDone)
		}
		return last
	}
	// Evicted and refilled: the refill's fetch makes it a half miss again.
	evict(ctrBlk, 500)
	if res, _, _ = s.CacheLookup(0, 700); res != Miss {
		t.Fatalf("lookup after eviction = %v, want Miss", res)
	}
	s.CacheFill(ctrBlk, 900)
	res, ready, _ = s.CacheLookup(0, 800)
	if res != HalfMiss || ready != 900 {
		t.Fatalf("lookup at 800 after refill = (%v, %d), want (HalfMiss, 900)", res, ready)
	}
	// Another counter block taking over the line starts from its own fill
	// time, not the outstanding 900.
	line := s.Cache().Line(ctrBlk)
	other := evict(ctrBlk, 50)
	if got := s.Cache().Line(other); got != line {
		t.Fatalf("block %#x took line %d, want the evicted block's line %d", other, got, line)
	}
	otherAddr := page * 64 * BlockSize
	res, ready, _ = s.CacheLookup(otherAddr, 40)
	if res != HalfMiss || ready != 50 {
		t.Fatalf("new block's lookup at 40 = (%v, %d), want (HalfMiss, 50)", res, ready)
	}
	if res, _, _ = s.CacheLookup(otherAddr, 60); res != Hit {
		t.Fatalf("new block's lookup at 60 = %v, want Hit", res)
	}
}

func TestCacheFillEviction(t *testing.T) {
	s := New(Config{
		Org: OrgSplit, MinorBits: 7, PageBlocks: 64,
		Regions: regions(),
		// Tiny fully-mapped cache: 2 blocks total.
		Cache: cache.Config{Name: "snc", SizeBytes: 128, Ways: 2, BlockBytes: 64},
	})
	_, _, b0 := s.CacheLookup(0, 0)
	s.CacheFill(b0, 10)
	s.CacheDirty(b0)
	_, _, b1 := s.CacheLookup(4096, 0)
	s.CacheFill(b1, 10)
	_, _, b2 := s.CacheLookup(8192, 0)
	ev, evicted := s.CacheFill(b2, 10)
	if !evicted || ev.Addr != b0 || !ev.Dirty {
		t.Errorf("eviction = %+v (%v), want dirty %#x", ev, evicted, b0)
	}
	if s.Cache().Contains(b0) {
		t.Error("evicted counter block still resident")
	}
}

func TestSeedUniquenessAcrossWritebacks(t *testing.T) {
	// Property: the sequence of (value) returned by repeated increments of
	// one block never repeats until a page re-encryption intervenes, and
	// with major bumps applied on overflow it never repeats at all. This is
	// the pad-reuse-freedom invariant the scheme's security rests on.
	f := func(nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		s := splitStore()
		const blk = 0
		seen := map[uint64]bool{0: true} // initial value used by first encryption
		for i := 0; i < n; i++ {
			v, ov := s.Increment(blk)
			if ov.Kind == PageOverflow {
				s.BumpMajor(s.PageAddr(blk))
				v = s.Value(blk)
			}
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFromSystem(t *testing.T) {
	sc := config.Default()
	cs := FromSystem(sc, regions())
	if cs.Org != OrgSplit || cs.MinorBits != 7 || cs.PageBlocks != 64 {
		t.Errorf("split mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncCounterMono
	sc.MonoCounterBits = 16
	cs = FromSystem(sc, regions())
	if cs.Org != OrgMono || cs.Bits != 16 {
		t.Errorf("mono mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncCounterGlobal
	cs = FromSystem(sc, regions())
	if cs.Org != OrgGlobal {
		t.Errorf("global mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncNone
	cs = FromSystem(sc, regions())
	if cs.Org != OrgSplit {
		t.Errorf("GCM-only mapping should be split: %+v", cs)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad split geometry did not panic")
		}
	}()
	New(Config{Org: OrgSplit, MinorBits: 0, PageBlocks: 64, Regions: regions()})
}
