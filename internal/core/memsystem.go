package core

import (
	"fmt"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// AccessResult is what the CPU model learns about one memory access.
type AccessResult struct {
	// DataReady is when the (decrypted) data can be forwarded to dependent
	// instructions.
	DataReady sim.Time
	// AuthDone is when the data's authentication completes; under the
	// commit requirement the instruction cannot retire before this, and
	// under safe even DataReady is clamped to it by the caller's policy.
	AuthDone sim.Time
	// L2Miss reports that the access went to the memory controller.
	L2Miss bool
}

// MemSystem is the full on-chip memory hierarchy plus the secure memory
// controller: the thing the simulated core issues loads and stores to.
//
// The hierarchy is modeled inclusive: an L2 eviction back-invalidates L1 so
// the functional layer's notion of "on-chip" is simply "L2-resident".
type MemSystem struct {
	cfg config.SystemConfig
	l1  *cache.Cache
	l2  *cache.Cache
	ctl *Controller

	// reg is non-nil once Instrument has run; smp is non-nil once
	// AttachSampler has run (see obs.go).
	reg *obsv.Registry
	smp *obsv.Sampler
}

// NewMemSystem builds the hierarchy for a configuration.
func NewMemSystem(cfg config.SystemConfig) (*MemSystem, error) {
	ctl, err := NewController(cfg)
	if err != nil {
		return nil, err
	}
	m := &MemSystem{
		cfg: cfg,
		l1:  cache.New(cfg.L1),
		l2:  cache.New(cfg.L2),
		ctl: ctl,
	}
	ctl.AttachL2(m.l2)
	ctl.SetVictimHook(m.evictL2)
	return m, nil
}

// Controller exposes the secure memory controller.
func (m *MemSystem) Controller() *Controller { return m.ctl }

// L1 exposes the L1 cache for statistics.
func (m *MemSystem) L1() *cache.Cache { return m.l1 }

// L2 exposes the L2 cache for statistics.
func (m *MemSystem) L2() *cache.Cache { return m.l2 }

// Access performs one load or store at cycle now. Stores are write-allocate
// write-back; a store miss costs a fill like a load.
func (m *MemSystem) Access(now sim.Time, addr uint64, write bool) AccessResult {
	// Cycle-driven sampling: accesses are the points where simulated time
	// advances, so crossing a sample boundary here snapshots the metric
	// trajectories. The uninstrumented cost is the nil check inside Due.
	if m.smp.Due(uint64(now)) {
		m.smp.Tick(uint64(now))
	}
	blk := m.l1.BlockAddr(addr)
	l1Lat := m.cfg.L1.LatencyCycles
	l2Lat := m.cfg.L2.LatencyCycles

	if m.l1.Lookup(blk, write) {
		t := now + l1Lat
		return AccessResult{DataReady: t, AuthDone: t}
	}
	// L1 miss: look in L2.
	var res AccessResult
	if m.l2.Lookup(blk, false) {
		t := now + l1Lat + l2Lat
		res = AccessResult{DataReady: t, AuthDone: t}
	} else {
		dataReady, authDone, forwarded := m.ctl.ReadBlock(now+l1Lat+l2Lat, blk)
		// Pin the demand block while its victim is handled: the victim's
		// write-back can fetch Merkle nodes into this set and must not
		// displace the line the requestor is waiting on (the MSHR holds
		// it). Nothing later in the access allocates in L2, so the pin
		// ends with the victim.
		if ev, evicted := m.l2.Fill(blk, forwarded); evicted {
			m.l2.Pin(blk)
			m.evictL2(now, ev)
			m.l2.Unpin(blk)
		}
		res = AccessResult{DataReady: dataReady, AuthDone: authDone, L2Miss: true}
	}
	// Fill L1, dirty for a store. A dirty L1 victim folds its data into L2,
	// where inclusion guarantees it is resident: every L2 removal goes
	// through evictL2, which back-invalidates L1 first.
	if ev, evicted := m.l1.Fill(blk, write); evicted && ev.Dirty && !m.l2.SetDirty(ev.Addr) {
		panic(fmt.Sprintf("core: inclusion violated: dirty L1 victim %#x is not in L2", ev.Addr))
	}
	return res
}

// evictL2 handles an L2 victim: back-invalidate L1 (merging its dirty
// state) and hand dirty blocks to the controller.
func (m *MemSystem) evictL2(now sim.Time, ev cache.Eviction) {
	if present, dirty := m.l1.Invalidate(ev.Addr); present && dirty {
		ev.Dirty = true
	}
	if ev.Dirty {
		m.ctl.HandleEviction(now, ev.Addr)
	} else {
		m.ctl.DropClean(ev.Addr)
	}
}

// Drain writes every dirty block in the hierarchy back to memory (data,
// then counters), leaving the caches empty. Functional examples use it to
// force the off-chip image current before staging attacks.
func (m *MemSystem) Drain(now sim.Time) {
	// L1 dirty lines merge into L2 first.
	var l1Blocks []uint64
	m.l1.ForEach(func(addr uint64, dirty bool) {
		if dirty {
			l1Blocks = append(l1Blocks, addr)
		}
	})
	for _, a := range l1Blocks {
		if !m.l2.SetDirty(a) {
			if ev, evicted := m.l2.Fill(a, true); evicted {
				m.evictL2(now, ev)
			}
		}
	}
	// Writing one dirty block back can dirty others (parent Merkle nodes,
	// counter blocks), so sweep until a pass finds nothing dirty. Dirtiness
	// is re-read at invalidation time: a snapshot taken before processing
	// would drop blocks dirtied mid-sweep.
	for pass := 0; ; pass++ {
		if pass > 64 {
			panic("core: Drain did not converge")
		}
		var l2Blocks []uint64
		m.l2.ForEach(func(addr uint64, _ bool) { l2Blocks = append(l2Blocks, addr) })
		for _, a := range l2Blocks {
			if present, dirty := m.l2.Invalidate(a); present {
				m.evictL2(now, cache.Eviction{Addr: a, Dirty: dirty})
			}
		}
		if mc := m.ctl.MacCache(); mc != nil {
			var dirtyMacs []uint64
			mc.ForEach(func(addr uint64, dirty bool) {
				if dirty {
					dirtyMacs = append(dirtyMacs, addr)
				}
			})
			for _, a := range dirtyMacs {
				mc.CleanLine(a)
				m.ctl.HandleEviction(now, a)
			}
		}
		dirtyLeft := false
		if ctrs := m.ctl.Counters(); ctrs != nil && ctrs.Cache() != nil {
			var dirtyCtrs []uint64
			ctrs.Cache().ForEach(func(addr uint64, dirty bool) {
				if dirty {
					dirtyCtrs = append(dirtyCtrs, addr)
				}
			})
			for _, a := range dirtyCtrs {
				ctrs.Cache().CleanLine(a)
				m.ctl.HandleEviction(now, a)
			}
			// Counter write-backs may have re-dirtied counter blocks
			// (derivative counters) or refilled L2 nodes dirty.
			ctrs.Cache().ForEach(func(addr uint64, dirty bool) {
				if dirty {
					dirtyLeft = true
				}
			})
		}
		m.l2.ForEach(func(addr uint64, dirty bool) {
			if dirty {
				dirtyLeft = true
			}
		})
		if mc := m.ctl.MacCache(); mc != nil {
			mc.ForEach(func(addr uint64, dirty bool) {
				if dirty {
					dirtyLeft = true
				}
			})
		}
		if !dirtyLeft {
			return
		}
	}
}

// WriteBytes performs a functional+timing write of arbitrary bytes,
// returning when the last block's data was ready. Functional mode only.
func (m *MemSystem) WriteBytes(now sim.Time, addr uint64, data []byte) (sim.Time, error) {
	if m.ctl.fn == nil {
		return 0, fmt.Errorf("core: WriteBytes requires functional mode")
	}
	done := now
	for len(data) > 0 {
		blk := m.l1.BlockAddr(addr)
		off := int(addr - blk)
		n := BlockSize - off
		if n > len(data) {
			n = len(data)
		}
		// A miss's own handling can, very rarely, displace the block again
		// before the bytes land (a deep Merkle-fill cascade into the same
		// set); retry the access like a real store would replay.
		poked := false
		for attempt := 0; attempt < 8 && !poked; attempt++ {
			r := m.Access(now, addr, true)
			if r.DataReady > done {
				done = r.DataReady
			}
			poked = m.ctl.fn.poke(blk, off, data[:n])
		}
		if !poked {
			return 0, fmt.Errorf("core: block %#x kept leaving the chip during write", blk)
		}
		addr += uint64(n)
		data = data[n:]
	}
	return done, nil
}

// ReadBytes performs a functional+timing read into buf, returning the
// access result of the last block touched. Tampering detected during the
// implied fills is visible via Controller().Tampers().
//
//secmemlint:secret out:buf
func (m *MemSystem) ReadBytes(now sim.Time, addr uint64, buf []byte) (AccessResult, error) {
	if m.ctl.fn == nil {
		return AccessResult{}, fmt.Errorf("core: ReadBytes requires functional mode")
	}
	var last AccessResult
	for len(buf) > 0 {
		blk := m.l1.BlockAddr(addr)
		off := int(addr - blk)
		n := BlockSize - off
		if n > len(buf) {
			n = len(buf)
		}
		var tmp [BlockSize]byte
		peeked := false
		for attempt := 0; attempt < 8 && !peeked; attempt++ {
			last = m.Access(now, addr, false)
			peeked = m.ctl.fn.peek(blk, tmp[:])
		}
		if !peeked {
			return last, fmt.Errorf("core: block %#x kept leaving the chip during read", blk)
		}
		copy(buf[:n], tmp[off:off+n])
		addr += uint64(n)
		buf = buf[n:]
	}
	return last, nil
}
