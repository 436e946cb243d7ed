package core

import (
	"bytes"
	"math/rand"
	"testing"

	"secmem/internal/config"
)

// TestInclusionProperty: any block resident in L1 must be resident in L2
// (the hierarchy is modeled inclusive so the functional layer's notion of
// on-chip is exactly L2 residence). Access itself panics if a dirty L1
// victim is missing from L2; a store-heavy mix over small caches runs that
// check where set conflicts are densest, including the 1-way L1 over a
// 2-way L2 of TestWriteBackForwardStorm and a functional machine whose
// Merkle nodes share the L2.
func TestInclusionProperty(t *testing.T) {
	timing := smallCfg()
	timing.Functional = false
	storm := timing
	storm.L1.SizeBytes, storm.L1.Ways = 512, 1
	storm.L2.SizeBytes, storm.L2.Ways = 2<<10, 2
	for _, tc := range []struct {
		name string
		cfg  config.SystemConfig
	}{
		{"smallCfg", timing},
		{"1-way-L1-over-2-way-L2", storm},
		{"functional-Merkle-in-L2", smallCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustSystem(t, tc.cfg)
			rng := rand.New(rand.NewSource(5))
			block := make([]byte, BlockSize)
			now := uint64(0)
			for i := 0; i <= 5000; i++ {
				a := uint64(rng.Intn(2048)) * BlockSize
				write := rng.Intn(4) != 0
				switch {
				case !tc.cfg.Functional:
					m.Access(now, a, write)
				case write:
					rng.Read(block)
					if _, err := m.WriteBytes(now, a, block); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := m.ReadBytes(now, a, block); err != nil {
						t.Fatal(err)
					}
				}
				now += 50
				if i%500 != 0 {
					continue
				}
				violations := 0
				m.L1().ForEach(func(addr uint64, _ bool) {
					if !m.L2().Contains(addr) {
						violations++
					}
				})
				if violations > 0 {
					t.Fatalf("op %d: %d L1 blocks not in L2", i, violations)
				}
			}
			if n := m.Controller().Stats.TamperDetected; n != 0 {
				t.Fatalf("false positives: %d", n)
			}
		})
	}
}

// TestDrainLeavesMemoryCurrent: after Drain, the DRAM image must decrypt to
// the latest written values with no on-chip help.
func TestDrainLeavesMemoryCurrent(t *testing.T) {
	m := mustSystem(t, smallCfg())
	rng := rand.New(rand.NewSource(6))
	shadow := map[uint64][]byte{}
	now := uint64(0)
	for i := 0; i < 100; i++ {
		a := uint64(rng.Intn(256)) * 64
		data := make([]byte, 64)
		rng.Read(data)
		if _, err := m.WriteBytes(now, a, data); err != nil {
			t.Fatal(err)
		}
		shadow[a] = data
		now += 500
	}
	m.Drain(now)
	// Fresh reads must reproduce every value.
	buf := make([]byte, 64)
	for a, want := range shadow {
		if _, err := m.ReadBytes(now, a, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %#x stale after drain", a)
		}
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("false positives: %d", n)
	}
}

// TestWriteBackForwardStorm: ping-pong two conflicting sets so blocks are
// constantly evicted and immediately re-fetched; write-back-buffer
// forwarding must keep data intact and never read stale DRAM.
func TestWriteBackForwardStorm(t *testing.T) {
	cfg := smallCfg()
	// Tiny 2-way L2: brutal conflict misses between the two data blocks
	// and the Merkle nodes sharing its sets. (Fully direct-mapped would be
	// a placement livelock — the tree node and the data block that needs
	// it cannot coexist — which no real design ships.)
	cfg.L2.SizeBytes = 2 << 10
	cfg.L2.Ways = 2
	cfg.L1.SizeBytes = 512
	cfg.L1.Ways = 1
	m := mustSystem(t, cfg)
	now := uint64(0)
	// Two addresses mapping to the same L2 set (stride = sets*block).
	a1, a2 := uint64(0x4000), uint64(0x4000+1<<10)
	v1 := bytes.Repeat([]byte{0xA1}, 64)
	v2 := bytes.Repeat([]byte{0xB2}, 64)
	if _, err := m.WriteBytes(now, a1, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteBytes(now+100, a2, v2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		now += 200
		x, want := a1, v1
		if i%2 == 1 {
			x, want = a2, v2
		}
		if _, err := m.ReadBytes(now, x, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("iteration %d: block %#x corrupted", i, x)
		}
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("false positives under forwarding storm: %d", n)
	}
}

// TestVictimHookKeepsDirtyL1Data: the regression behind the victim-hook
// design — a controller-internal L2 fill (Merkle node) evicting a block
// whose only dirty copy is in L1 must not lose that data.
func TestVictimHookKeepsDirtyL1Data(t *testing.T) {
	cfg := smallCfg()
	m := mustSystem(t, cfg)
	rng := rand.New(rand.NewSource(99))
	shadow := map[uint64][]byte{}
	now := uint64(0)
	// Heavy mixed traffic with periodic drains: before the hook existed,
	// this workload lost writes (seed 99 reproduced it deterministically).
	for i := 0; i < 400; i++ {
		a := uint64(rng.Intn(1024)) * 64
		if rng.Intn(3) != 0 {
			data := make([]byte, 64)
			rng.Read(data)
			if _, err := m.WriteBytes(now, a, data); err != nil {
				t.Fatal(err)
			}
			shadow[a] = data
		} else if want, ok := shadow[a]; ok {
			got := make([]byte, 64)
			if _, err := m.ReadBytes(now, a, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %#x lost its dirty L1 data", i, a)
			}
		}
		now += 300
		if i%100 == 99 {
			m.Drain(now)
		}
	}
}

func TestAccessResultMonotonic(t *testing.T) {
	// DataReady and AuthDone must never precede the access time.
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	rng := rand.New(rand.NewSource(8))
	now := uint64(1000)
	for i := 0; i < 3000; i++ {
		a := uint64(rng.Intn(4096)) * 64
		r := m.Access(now, a, rng.Intn(4) == 0)
		if r.DataReady < now || r.AuthDone < now {
			t.Fatalf("result precedes access: now=%d %+v", now, r)
		}
		now += uint64(rng.Intn(100))
	}
}

func TestSchemeNameOnRunOutput(t *testing.T) {
	cfg := smallCfg()
	if got := cfg.SchemeName(); got != "Split+GCM" {
		t.Errorf("smallCfg scheme = %q", got)
	}
	_ = config.Default()
}

// TestMissPathAllocationFree: once the write-back buffer and the counter
// tables have grown, an L2 miss allocates nothing, including the dirty
// victim's write-back with its counter bump and Merkle update.
func TestMissPathAllocationFree(t *testing.T) {
	m := mustSystem(t, config.Default())
	// Stores to 2 MB of consecutive blocks, twice the L2: after the first
	// pass every access misses and evicts a dirty block.
	const blocks = 32768
	now := uint64(0)
	misses := 0
	pass := func() {
		misses = 0
		for i := uint64(0); i < blocks; i++ {
			r := m.Access(now, i*BlockSize, true)
			if r.L2Miss {
				misses++
			}
			now = r.DataReady
		}
	}
	pass()
	wbs := m.Controller().Stats.WriteBacks
	if n := testing.AllocsPerRun(1, pass); n != 0 {
		t.Errorf("%v heap allocations per pass of %d misses, want 0", n, blocks)
	}
	if misses != blocks {
		t.Errorf("%d of %d accesses missed L2, want all", misses, blocks)
	}
	// AllocsPerRun makes a warm-up pass of its own: two passes, each
	// writing back nearly one dirty data block per miss.
	if got := m.Controller().Stats.WriteBacks - wbs; got < blocks {
		t.Errorf("%d data write-backs over two passes, want at least %d", got, blocks)
	}
}

// TestFunctionalRootsAllocationFree: a functional machine encrypts,
// decrypts and MACs a block on every fill, write-back and tree step, and
// on the GCM schemes none of the three allocates. SHA-1 is left out: its
// MAC allocates one digest by design. The counter is above 255, so one
// boxed into an interface on the way would allocate.
func TestFunctionalRootsAllocationFree(t *testing.T) {
	for _, enc := range []config.EncryptionMode{config.EncCounterSplit, config.EncDirect} {
		cfg := config.Default()
		cfg.Functional = true
		cfg.Enc = enc
		f := mustSystem(t, cfg).Controller().fn
		const addr, ctr = 0x12340, 1 << 20
		var src, dst [BlockSize]byte
		var mac [16]byte
		for _, c := range []struct {
			name string
			fn   func()
		}{
			{"encrypt", func() { f.encrypt(dst[:], src[:], addr, ctr) }},
			{"decrypt", func() { f.decrypt(dst[:], src[:], addr, ctr) }},
			{"computeMac", func() { f.computeMac(addr, src[:], ctr, &mac) }},
		} {
			if n := testing.AllocsPerRun(100, c.fn); n != 0 {
				t.Errorf("%s: %s allocates %.1f objects/op, want 0", cfg.SchemeName(), c.name, n)
			}
		}
	}
}

// TestWriteBackBufferQueuedTwice pins the write-back buffer's semantics
// for a block queued twice: one forward squashes both copies, and without
// a forward the block is written back once.
func TestWriteBackBufferQueuedTwice(t *testing.T) {
	ctl := mustSystem(t, config.Default()).Controller()
	const blk = 0x4000
	ctl.enqueueWB(100, blk)
	ctl.enqueueWB(200, blk)
	if !ctl.forwardWB(blk) {
		t.Fatal("forward of a queued block missed the buffer")
	}
	if ctl.forwardWB(blk) {
		t.Fatal("second forward hit the buffer: the first left a live copy")
	}
	ctl.drain()
	if n := ctl.Stats.WriteBacks; n != 0 {
		t.Fatalf("drain wrote back %d forwarded blocks, want 0", n)
	}
	ctl.enqueueWB(300, blk)
	ctl.enqueueWB(400, blk)
	ctl.drain()
	if n := ctl.Stats.WriteBacks; n != 1 {
		t.Fatalf("block queued twice written back %d times, want 1", n)
	}
	// A copy queued after a forward is live again.
	ctl.enqueueWB(500, blk)
	ctl.forwardWB(blk)
	ctl.enqueueWB(600, blk)
	ctl.drain()
	if n := ctl.Stats.WriteBacks; n != 2 {
		t.Fatalf("re-queued block written back %d times in total, want 2", n)
	}
	if len(ctl.wbQueue) != 0 || ctl.wbHead != 0 {
		t.Errorf("buffer not reset after drain: len %d, head %d", len(ctl.wbQueue), ctl.wbHead)
	}
}
