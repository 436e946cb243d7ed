// Package reenc implements the re-encryption status registers (RSRs) of
// Section 4.2: the small register file that lets page re-encryption proceed
// in the background while the processor keeps executing. Each register tags
// one encryption page, holds the page's old major counter (needed to decrypt
// blocks still encrypted under it), and tracks per-block done bits.
//
// The timing of the re-encryption traffic itself (fetches, AES work, write
// backs) is orchestrated by the core package on the shared resource
// timelines; this package owns the register state, the allocation/stall
// policy, and the statistics behind the paper's Section 6.1 scalars (48% of
// blocks found on-chip, ~5717-cycle mean page re-encryption, stall-free
// operation with 8 RSRs).
package reenc

import (
	"fmt"

	"secmem/internal/sim"
)

// Register is one RSR. The hardware register also holds the page's old
// major counter; the functional layer takes it from the re-encryption
// itself, so the model keeps no copy.
type Register struct {
	PageAddr uint64
	// FreeAt is the cycle at which this register's re-encryption completes
	// and the register becomes reusable. A register is busy at time t iff
	// FreeAt > t and it has been allocated at least once.
	FreeAt    sim.Time
	StartedAt sim.Time
	done      []bool
	remaining int
	inUse     bool
}

// MarkDone sets a block's done bit, returning false if it was already set.
func (r *Register) MarkDone(blockIdx int) bool {
	if r.done[blockIdx] {
		return false
	}
	r.done[blockIdx] = true
	r.remaining--
	return true
}

// Stats accumulates re-encryption activity.
type Stats struct {
	PageReencs     uint64
	BlocksOnChip   uint64 // blocks found in L2 and handled lazily
	BlocksFetched  uint64 // blocks fetched from memory by the RSR
	TotalCycles    sim.Time
	MaxCycles      sim.Time
	SamePageStalls uint64   // write-back hit a page already re-encrypting
	AllocStalls    uint64   // no RSR free at request time
	StallCycles    sim.Time // total cycles write-backs waited on RSRs
	MaxConcurrent  int
}

// MeanCycles is the average page re-encryption duration.
func (s Stats) MeanCycles() float64 {
	if s.PageReencs == 0 {
		return 0
	}
	return float64(s.TotalCycles) / float64(s.PageReencs)
}

// OnChipFraction is the average fraction of page blocks found on-chip when
// re-encryption begins (the paper reports 48%).
func (s Stats) OnChipFraction() float64 {
	total := s.BlocksOnChip + s.BlocksFetched
	if total == 0 {
		return 0
	}
	return float64(s.BlocksOnChip) / float64(total)
}

// File is the RSR file.
type File struct {
	regs       []Register
	pageBlocks int
	Stats      Stats
}

// NewFile builds a file of n registers for pageBlocks-block pages.
func NewFile(n, pageBlocks int) *File {
	if n <= 0 || pageBlocks <= 0 {
		panic(fmt.Sprintf("reenc: invalid file geometry n=%d pageBlocks=%d", n, pageBlocks))
	}
	f := &File{regs: make([]Register, n), pageBlocks: pageBlocks}
	for i := range f.regs {
		f.regs[i].done = make([]bool, pageBlocks)
	}
	return f
}

// Busy returns the register currently re-encrypting page, if any is still
// in flight at time now.
func (f *File) Busy(now sim.Time, page uint64) *Register {
	for i := range f.regs {
		r := &f.regs[i]
		if r.inUse && r.FreeAt > now && r.PageAddr == page {
			return r
		}
	}
	return nil
}

// Allocate obtains a register for re-encrypting page starting no earlier
// than now, applying the paper's two stall rules: a write-back whose page is
// already being re-encrypted waits for that RSR to free, and a write-back
// that finds no free RSR waits for the earliest one. It returns the register
// and the cycle at which the re-encryption actually begins.
func (f *File) Allocate(now sim.Time, page uint64) (*Register, sim.Time) {
	start := now
	if b := f.Busy(now, page); b != nil {
		// Same-page overflow while still re-encrypting: stall until freed.
		f.Stats.SamePageStalls++
		f.Stats.StallCycles += b.FreeAt - now
		start = b.FreeAt
	}
	// Pick the earliest-free register.
	best := &f.regs[0]
	for i := 1; i < len(f.regs); i++ {
		if f.regs[i].FreeAt < best.FreeAt {
			best = &f.regs[i]
		}
	}
	if best.FreeAt > start {
		f.Stats.AllocStalls++
		f.Stats.StallCycles += best.FreeAt - start
		start = best.FreeAt
	}
	// Concurrency high-water mark: registers still in flight at start.
	inFlight := 1
	for i := range f.regs {
		if r := &f.regs[i]; r.inUse && r.FreeAt > start && r != best {
			inFlight++
		}
	}
	if inFlight > f.Stats.MaxConcurrent {
		f.Stats.MaxConcurrent = inFlight
	}

	best.PageAddr = page
	best.StartedAt = start
	best.FreeAt = start // provisional until Complete
	best.inUse = true
	best.remaining = f.pageBlocks
	for i := range best.done {
		best.done[i] = false
	}
	f.Stats.PageReencs++
	return best, start
}

// Complete records the re-encryption's finish time, freeing the register
// for allocations at or after completeAt.
func (f *File) Complete(r *Register, completeAt sim.Time) {
	if r.remaining != 0 {
		panic(fmt.Sprintf("reenc: completing page %#x with %d blocks pending", r.PageAddr, r.remaining))
	}
	if completeAt < r.StartedAt {
		panic("reenc: completion before start")
	}
	r.FreeAt = completeAt
	d := completeAt - r.StartedAt
	f.Stats.TotalCycles += d
	if d > f.Stats.MaxCycles {
		f.Stats.MaxCycles = d
	}
}

// NoteOnChip counts a block handled lazily in cache.
func (f *File) NoteOnChip() { f.Stats.BlocksOnChip++ }

// NoteFetched counts a block fetched from memory.
func (f *File) NoteFetched() { f.Stats.BlocksFetched++ }

// StorageBits estimates the hardware cost of the file: per register a valid
// bit, a 20-bit encryption-page tag (a 1 GB memory has 2^18 4 KB pages), a
// 64-bit old major, and one done bit per block. For 8 RSRs this is just
// under the paper's "less than 150 bytes".
func (f *File) StorageBits() int {
	return len(f.regs) * (1 + 20 + 64 + f.pageBlocks)
}
