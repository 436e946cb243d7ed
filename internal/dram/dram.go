// Package dram models the main memory of the simulated system: a timing
// model (fixed uncontended round-trip latency below the bus) plus an
// optional functional backing store holding the actual (cipher)bytes that
// the secure memory controller reads and writes.
//
// The backing store is also the attack surface: everything in it sits
// outside the processor chip's trust boundary, so the Attacker type mutates
// it directly, exactly like the bus snoopers and mod chips the paper defends
// against. Sparse storage keeps multi-hundred-megabyte address spaces cheap
// when only a small working set is touched.
package dram

import (
	"fmt"
	"math/rand"

	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// BlockSize is the memory block granularity (matches the cache line size).
const BlockSize = 64

// Config describes the memory device.
type Config struct {
	// SizeBytes is the total physical address space (data + metadata
	// regions). Accesses beyond it panic: layout bugs must not hide.
	SizeBytes uint64
	// LatencyCycles is the uncontended round-trip latency in CPU cycles,
	// measured below the bus (the paper uses 200).
	LatencyCycles sim.Time
	// ServiceInterval is the minimum spacing between row accesses the
	// device sustains (its internal banking limit). The bus is usually the
	// tighter bound; 16 cycles is a reasonable device-side limit.
	ServiceInterval sim.Time
	// Functional enables the byte-level backing store.
	Functional bool
}

// DefaultConfig returns the paper's memory parameters (512 MB, 200-cycle
// round trip) with the functional store disabled.
func DefaultConfig() Config {
	return Config{SizeBytes: 512 << 20, LatencyCycles: 200, ServiceInterval: 16}
}

// DRAM is the device.
type DRAM struct {
	cfg    Config
	pipe   *sim.Pipeline
	blocks map[uint64]*[BlockSize]byte // functional store, block-aligned keys

	Reads  uint64
	Writes uint64

	// Observability handles; nil-safe.
	mRead  *obsv.Counter
	mWrite *obsv.Counter
	rec    *obsv.Recorder
}

// Instrument registers the device's metrics in reg and attaches the trace
// recorder. Either argument may be nil.
func (d *DRAM) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	d.mRead = reg.Counter("dram.read")
	d.mWrite = reg.Counter("dram.write")
	d.rec = rec
}

// New creates a DRAM device.
func New(cfg Config) *DRAM {
	if cfg.SizeBytes == 0 || cfg.SizeBytes%BlockSize != 0 {
		panic("dram: size must be a positive multiple of the block size")
	}
	d := &DRAM{
		cfg:  cfg,
		pipe: sim.NewPipeline(1, cfg.ServiceInterval, cfg.LatencyCycles),
	}
	if cfg.Functional {
		d.blocks = make(map[uint64]*[BlockSize]byte)
	}
	return d
}

// Config returns the device configuration.
func (d *DRAM) Config() Config { return d.cfg }

// AccessRead reserves device service for a block read presented at now
// (typically after the bus grant) and returns the data-available cycle.
func (d *DRAM) AccessRead(now sim.Time) sim.Time {
	d.Reads++
	done, start := d.pipe.IssueStart(now)
	d.mRead.Inc()
	d.rec.Span("dram", "read", uint64(start), uint64(done))
	return done
}

// AccessWrite reserves device service for a block write. Writes are posted:
// the returned cycle is when the device has absorbed the data.
func (d *DRAM) AccessWrite(now sim.Time) sim.Time {
	d.Writes++
	done, start := d.pipe.IssueStart(now)
	d.mWrite.Inc()
	d.rec.Span("dram", "write", uint64(start), uint64(done))
	return done
}

// Utilization is the fraction of [0, end) the device spent servicing
// accesses (occupancy of its service pipeline).
func (d *DRAM) Utilization(end sim.Time) float64 { return d.pipe.Utilization(end) }

func (d *DRAM) checkAddr(addr uint64) {
	if addr%BlockSize != 0 {
		panic(fmt.Sprintf("dram: unaligned block address %#x", addr))
	}
	if addr+BlockSize > d.cfg.SizeBytes {
		panic(fmt.Sprintf("dram: address %#x beyond %d-byte memory", addr, d.cfg.SizeBytes))
	}
}

// ReadBlock copies the 64-byte block at addr into dst (functional mode
// only). Unwritten blocks read as zero.
func (d *DRAM) ReadBlock(addr uint64, dst []byte) {
	d.checkAddr(addr)
	if d.blocks == nil {
		panic("dram: functional store disabled")
	}
	if b, ok := d.blocks[addr]; ok {
		copy(dst, b[:])
		return
	}
	for i := 0; i < BlockSize && i < len(dst); i++ {
		dst[i] = 0
	}
}

// WriteBlock stores the 64-byte block at addr (functional mode only).
func (d *DRAM) WriteBlock(addr uint64, src []byte) {
	d.checkAddr(addr)
	if d.blocks == nil {
		panic("dram: functional store disabled")
	}
	b, ok := d.blocks[addr]
	if !ok {
		b = new([BlockSize]byte)
		d.blocks[addr] = b
	}
	copy(b[:], src)
}

// Functional reports whether the backing store is enabled.
func (d *DRAM) Functional() bool { return d.blocks != nil }

// HasBlock reports whether the block at addr has ever been written. The
// functional verifier uses this to skip MAC checks on uninitialized memory.
func (d *DRAM) HasBlock(addr uint64) bool {
	_, ok := d.blocks[addr]
	return ok
}

// ForEachBlock visits every written block address (in no particular order).
// Whole-memory re-encryption uses it to find everything that needs a new
// key epoch.
func (d *DRAM) ForEachBlock(fn func(addr uint64)) {
	for addr := range d.blocks {
		fn(addr)
	}
}

// TouchedBlocks reports how many distinct blocks have been written.
func (d *DRAM) TouchedBlocks() int { return len(d.blocks) }

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
