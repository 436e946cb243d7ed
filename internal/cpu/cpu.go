// Package cpu models the three-issue out-of-order core of Section 5 as an
// interval simulator: instructions dispatch in program order at up to
// IssueWidth per cycle, occupy a reorder-buffer window, and retire in order
// at the same width. Memory operations resolve through the secure memory
// hierarchy; their completion times are what couple the core to the
// encryption/authentication machinery:
//
//   - lazy:   loads complete when decrypted data arrives; retirement never
//     waits for authentication.
//   - commit: dependent instructions may use data at decryption, but the
//     load cannot retire before authentication — it holds its ROB entry.
//   - safe:   data may not even be used before authentication completes.
//
// Pointer-chasing is modeled through the trace's Dependent flag: a
// dependent access cannot issue before the previous load's data is usable.
// Memory-level parallelism is bounded by the MSHR count.
//
// Time is tracked in sub-cycle ticks (12 per cycle) so a three-wide
// dispatch advances exactly 4 ticks per instruction with integer math.
package cpu

import (
	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/sim"
)

// The core of Section 5: a 3-issue out-of-order core at 5 GHz. No
// experiment varies either.
const (
	// ClockGHz is the core clock.
	ClockGHz = 5.0
	// IssueWidth is the dispatch and retire width, in instructions per
	// cycle.
	IssueWidth = 3
	// SubTicks is the number of sub-cycle ticks per processor cycle, a
	// multiple of IssueWidth.
	SubTicks = 12
	// subPerInstr is the dispatch spacing of consecutive instructions.
	subPerInstr sim.Time = SubTicks / IssueWidth
)

// Memory is the interface the core issues accesses through;
// *core.MemSystem implements it.
type Memory interface {
	Access(now sim.Time, addr uint64, write bool) core.AccessResult
}

// Event is one memory operation in the instruction stream, preceded by
// NonMemBefore non-memory instructions.
type Event struct {
	Addr         uint64
	Write        bool
	NonMemBefore uint32
	// Dependent marks this access's address as produced by the previous
	// load (pointer chasing): it cannot issue until that load's data is
	// usable.
	Dependent bool
}

// Source produces the instruction stream. Next returns false when the
// workload is exhausted.
type Source interface {
	Next() (Event, bool)
}

// Result summarizes one simulation.
type Result struct {
	Instructions uint64
	Cycles       sim.Time
	Loads        uint64
	Stores       uint64
	L2Misses     uint64
}

// IPC is retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Seconds converts the cycle count to simulated time at the core clock.
func (r Result) Seconds() float64 {
	return float64(r.Cycles) / (ClockGHz * 1e9)
}

// CPU is the core model. Create one per run.
type CPU struct {
	cfg config.SystemConfig
	mem Memory

	dispatch sim.Time // sub-ticks
	retire   sim.Time // sub-ticks: pacing of the in-order retire stage
	index    uint64   // instructions dispatched so far

	// memops is a fixed-capacity ring of in-flight memory instructions'
	// (index, retire-ready in sub-ticks) for the ROB-occupancy constraint.
	// At most ROBSize memops are in flight, so the ring never grows — the
	// run loop stays allocation-free (TestRunLoopAllocationFree).
	memops        []memop
	moHead, moLen int
	moMask        int
	// mshr is a fixed-capacity ring of outstanding-miss completion times
	// (cycles); occupancy is bounded by the MSHR count.
	mshr          []sim.Time
	msHead, msLen int
	msMask        int

	lastLoadData sim.Time // cycles: when the latest load's data became usable

	res Result
}

type memop struct {
	idx       uint64
	retireSub sim.Time
}

// ringCap rounds n up to a power of two so ring indices wrap with a mask.
func ringCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// New builds a core over a memory system.
func New(cfg config.SystemConfig, mem Memory) *CPU {
	c := &CPU{cfg: cfg, mem: mem}
	c.memops = make([]memop, ringCap(cfg.ROBSize))
	c.moMask = len(c.memops) - 1
	c.mshr = make([]sim.Time, ringCap(cfg.MSHRs))
	c.msMask = len(c.mshr) - 1
	return c
}

// ensureWindow enforces the ROB bound: instruction at index i cannot
// dispatch until instruction i-ROBSize has retired. Only memory operations
// can hold retirement back, so only they are tracked.
func (c *CPU) ensureWindow(i uint64) {
	rob := uint64(c.cfg.ROBSize)
	for c.moLen > 0 {
		op := c.memops[c.moHead]
		if op.idx+rob > i {
			break
		}
		c.moHead = (c.moHead + 1) & c.moMask
		c.moLen--
		if op.retireSub > c.dispatch {
			c.dispatch = op.retireSub
		}
	}
}

// noteRetire records a memory instruction's retirement constraint, keeping
// retire times monotonic (in-order retirement) and paced at IssueWidth.
func (c *CPU) noteRetire(idx uint64, readySub sim.Time) {
	if readySub < c.retire+subPerInstr {
		readySub = c.retire + subPerInstr
	}
	c.retire = readySub
	c.memops[(c.moHead+c.moLen)&c.moMask] = memop{idx: idx, retireSub: readySub}
	c.moLen++
}

// Run executes up to maxInstructions from src and returns the result.
func (c *CPU) Run(src Source, maxInstructions uint64) Result {
	for c.res.Instructions < maxInstructions {
		ev, ok := src.Next()
		if !ok {
			break
		}
		// Bulk-dispatch the preceding non-memory instructions.
		n := uint64(ev.NonMemBefore)
		if rem := maxInstructions - c.res.Instructions; n >= rem {
			// The stream ends mid-batch: account the tail and stop.
			c.dispatch += sim.Time(rem) * subPerInstr
			c.res.Instructions += rem
			break
		}
		c.index += n
		c.res.Instructions += n
		c.dispatch += sim.Time(n) * subPerInstr
		c.ensureWindow(c.index)

		// Dispatch the memory instruction itself.
		c.index++
		c.res.Instructions++
		c.dispatch += subPerInstr
		c.ensureWindow(c.index)

		issue := c.dispatch / SubTicks
		if ev.Dependent && c.lastLoadData > issue {
			issue = c.lastLoadData
		}
		// MSHR bound: a full miss file stalls the next miss until the
		// oldest completes.
		if c.msLen >= c.cfg.MSHRs {
			oldest := c.mshr[c.msHead]
			c.msHead = (c.msHead + 1) & c.msMask
			c.msLen--
			if oldest > issue {
				issue = oldest
			}
		}

		r := c.mem.Access(issue, ev.Addr, ev.Write)
		if r.L2Miss {
			c.res.L2Misses++
			c.mshr[(c.msHead+c.msLen)&c.msMask] = r.DataReady
			c.msLen++
		}

		dataReady, retireReady := c.policyTimes(r)
		if ev.Write {
			c.res.Stores++
			// Stores retire once issued to the cache; the write-back side
			// is off the critical path.
			c.noteRetire(c.index, (issue+1)*SubTicks)
		} else {
			c.res.Loads++
			c.lastLoadData = dataReady
			c.noteRetire(c.index, retireReady*SubTicks)
		}
	}
	// Final cycle count: everything dispatched must also retire.
	end := c.dispatch
	if c.retire > end {
		end = c.retire
	}
	for i := 0; i < c.moLen; i++ {
		op := c.memops[(c.moHead+i)&c.moMask]
		if op.retireSub > end {
			end = op.retireSub
		}
	}
	c.res.Cycles = end/SubTicks + 1
	return c.res
}

// policyTimes applies the authentication requirement to a load's result.
func (c *CPU) policyTimes(r core.AccessResult) (dataReady, retireReady sim.Time) {
	switch c.cfg.Req {
	case config.AuthSafe:
		t := max(r.DataReady, r.AuthDone)
		return t, t
	case config.AuthCommit:
		return r.DataReady, max(r.DataReady, r.AuthDone)
	default: // lazy
		return r.DataReady, r.DataReady
	}
}
