// Package dram models the main memory of the simulated system: a timing
// model (fixed uncontended round-trip latency below the bus) plus an
// optional functional backing store holding the actual (cipher)bytes that
// the secure memory controller reads and writes.
//
// The backing store is also the attack surface: everything in it sits
// outside the processor chip's trust boundary, so the Attacker type mutates
// it directly, exactly like the bus snoopers and mod chips the paper defends
// against. The store is a sparse.Table of blocks, each allocated with its
// first write, so a multi-hundred-megabyte address space costs what its
// written blocks do, and it visits them in ascending address order.
package dram

import (
	"fmt"
	"math/rand"

	"secmem/internal/sim"
	"secmem/internal/sparse"
)

// BlockSize is the memory block granularity (matches the cache line size).
const BlockSize = 64

// The memory device of Section 5, which no experiment varies.
const (
	// LatencyCycles is the uncontended round-trip latency in CPU cycles,
	// measured below the bus.
	LatencyCycles = 200
	// ServiceInterval is the minimum spacing between row accesses the
	// device sustains (its internal banking limit). The bus is usually the
	// tighter bound; 16 cycles is a reasonable device-side limit.
	ServiceInterval = 16
)

// DRAM is the device: a one-server timeline that takes a row access every
// ServiceInterval cycles, each done LatencyCycles after it starts.
type DRAM struct {
	sim.Timeline

	// size is the total physical address space (data and metadata
	// regions). Accesses beyond it panic: layout bugs must not hide.
	size uint64
	// functional enables the backing store, blocks, which holds every
	// written block by its index (address / BlockSize).
	functional bool
	blocks     sparse.Table[[BlockSize]byte]

	Reads  uint64
	Writes uint64
}

// New creates a DRAM device of sizeBytes. functional enables the
// byte-level backing store.
func New(sizeBytes uint64, functional bool) *DRAM {
	if sizeBytes == 0 || sizeBytes%BlockSize != 0 {
		panic("dram: size must be a positive multiple of the block size")
	}
	return &DRAM{Timeline: sim.NewTimeline(1), size: sizeBytes, functional: functional}
}

// AccessRead reserves device service for a block read presented at now
// (typically after the bus grant) and returns the data-available cycle.
func (d *DRAM) AccessRead(now sim.Time) sim.Time {
	d.Reads++
	_, done := d.Reserve(now, ServiceInterval, LatencyCycles, "read")
	return done
}

// AccessWrite reserves device service for a block write. Writes are posted:
// the returned cycle is when the device has absorbed the data.
func (d *DRAM) AccessWrite(now sim.Time) sim.Time {
	d.Writes++
	_, done := d.Reserve(now, ServiceInterval, LatencyCycles, "write")
	return done
}

func (d *DRAM) checkAddr(addr uint64) {
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("dram: unaligned block address %#x", addr))
	}
	if addr+BlockSize > d.size {
		panic(fmt.Sprintf("dram: address %#x beyond %d-byte memory", addr, d.size))
	}
}

// ReadBlock copies the 64-byte block at addr into dst (functional mode
// only). Unwritten blocks read as zero.
func (d *DRAM) ReadBlock(addr uint64, dst []byte) {
	d.checkAddr(addr)
	if !d.functional {
		panic("dram: functional store disabled")
	}
	if b := d.blocks.At(addr / BlockSize); b != nil {
		copy(dst, b[:])
		return
	}
	clear(dst[:min(BlockSize, len(dst))])
}

// WriteBlock stores the 64-byte block at addr (functional mode only).
func (d *DRAM) WriteBlock(addr uint64, src []byte) {
	d.checkAddr(addr)
	if !d.functional {
		panic("dram: functional store disabled")
	}
	b := d.blocks.At(addr / BlockSize)
	if b == nil {
		b = d.blocks.Slot(addr / BlockSize)
	}
	copy(b[:], src)
}

// Functional reports whether the backing store is enabled.
func (d *DRAM) Functional() bool { return d.functional }

// HasBlock reports whether the block at addr has ever been written. The
// functional verifier uses this to skip MAC checks on uninitialized memory.
func (d *DRAM) HasBlock(addr uint64) bool {
	return d.blocks.At(addr/BlockSize) != nil
}

// ForEachBlock visits every written block address in ascending order.
// Whole-memory re-encryption uses it to find everything that needs a new
// key epoch, and re-encrypts in that order.
func (d *DRAM) ForEachBlock(fn func(addr uint64)) {
	d.blocks.Each(func(i uint64, _ *[BlockSize]byte) { fn(i * BlockSize) })
}

// Attacker provides hardware-attack primitives against the backing store.
// It models a device spliced onto the memory bus or a mod chip on the DIMM:
// it can observe and overwrite anything stored off-chip, but cannot see
// inside the processor.
type Attacker struct {
	d *DRAM
	// snapshots holds block values the attacker recorded for replay.
	snapshots map[uint64][BlockSize]byte
}

// NewAttacker attaches an attacker to the memory. Requires functional mode.
func NewAttacker(d *DRAM) *Attacker {
	if !d.Functional() {
		panic("dram: attacker needs a functional backing store")
	}
	return &Attacker{d: d, snapshots: make(map[uint64][BlockSize]byte)}
}

// Snoop returns a copy of the block at addr, as a bus snooper would capture.
func (a *Attacker) Snoop(addr uint64) [BlockSize]byte {
	var b [BlockSize]byte
	a.d.ReadBlock(addr, b[:])
	return b
}

// FlipBit inverts one bit of the stored block: a spot-tampering attack.
func (a *Attacker) FlipBit(addr uint64, bit int) {
	var b [BlockSize]byte
	a.d.ReadBlock(addr, b[:])
	b[bit/8] ^= 1 << (bit % 8)
	a.d.WriteBlock(addr, b[:])
}

// Overwrite replaces the stored block wholesale.
func (a *Attacker) Overwrite(addr uint64, data []byte) {
	a.d.WriteBlock(addr, data)
}

// Record snapshots the current block value for a later replay.
func (a *Attacker) Record(addr uint64) {
	a.snapshots[addr] = a.Snoop(addr)
}

// Replay rolls the block back to its recorded snapshot (the classic replay
// attack; when addr is a counter block this is the Section 4.3 counter
// replay). It reports whether a snapshot existed.
func (a *Attacker) Replay(addr uint64) bool {
	b, ok := a.snapshots[addr]
	if !ok {
		return false
	}
	a.d.WriteBlock(addr, b[:])
	return true
}

// Splice copies the stored block at src over the one at dst, a relocation
// attack that authentication must catch via the address component.
func (a *Attacker) Splice(src, dst uint64) {
	b := a.Snoop(src)
	a.d.WriteBlock(dst, b[:])
}

// Corrupt randomizes the block at addr using the given source, for failure
// injection sweeps.
func (a *Attacker) Corrupt(addr uint64, rng *rand.Rand) {
	var b [BlockSize]byte
	rng.Read(b[:])
	a.d.WriteBlock(addr, b[:])
}
