// Package sim provides the timing primitives of the secure-memory simulator:
// a cycle type and timeline-reservation resource models.
//
// The simulator is transaction-ordered rather than event-driven: the CPU
// model walks the instruction stream in program order and each memory
// transaction greedily reserves the resources it needs (bus slots, DRAM
// service, crypto-engine issue slots) on shared timelines. A resource keeps
// the earliest cycle at which it is next free; a request arriving at cycle t
// starts at max(t, nextFree). This reproduces FIFO queuing delay and
// bandwidth saturation exactly only when requests are presented in
// nondecreasing time order, and the in-order transaction walk does not
// guarantee that: a transaction reserves its later phases (counter and
// Merkle fetches, pads, write-backs) at future cycles, and a later
// transaction that starts earlier then queues behind those slots instead
// of using the idle gap before them. At 2M instructions on crafty, twolf,
// swim and mcf, 19-76% of bus requests arrive earlier than a request
// already placed, and they carry 52-100% of all bus wait, on the baseline
// and on protected machines. The AES engine
// (a Pipeline) reorders too: under Split+GCM, 22-60% of its issues arrive
// early, carrying 77-100% of all AES wait. DRAM does not, because it
// follows the bus grant. How far this moves the figures is item 9 of
// ROADMAP.md ("The shared timelines are not work-conserving: the bus and
// the crypto engines").
package sim

// Time is a point in simulated time, in processor cycles.
type Time = uint64

// Resource is a unit that serves one request at a time in FIFO order, each
// request occupying it for a caller-specified number of cycles. The zero
// value is a free resource at cycle 0.
type Resource struct {
	nextFree Time
	busy     Time // total occupied cycles, for utilization reporting
	waited   Time // total queuing delay imposed on requests
}

// Acquire reserves the resource for occupancy cycles starting no earlier
// than now, returning the cycle at which service actually starts.
func (r *Resource) Acquire(now, occupancy Time) Time {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.waited += start - now
	r.nextFree = start + occupancy
	r.busy += occupancy
	return start
}

// BusyCycles reports the cumulative cycles the resource has been occupied.
func (r *Resource) BusyCycles() Time { return r.busy }

// WaitedCycles reports the cumulative queuing delay imposed on requests.
func (r *Resource) WaitedCycles() Time { return r.waited }

// Utilization reports the fraction of [0, end) the resource was occupied.
// It returns 0 for end == 0 and can exceed 1 only if callers keep acquiring
// past end (the caller chooses end, normally the run's final cycle).
func (r *Resource) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(r.busy) / float64(end)
}

// Pipeline models a k-way pipelined functional unit: each of the k engines
// can accept a new operation every II cycles, and every operation completes
// Latency cycles after it issues. This matches the paper's AES engine
// ("16-stage pipeline and a total latency of 80 processor cycles": II = 5)
// and SHA-1 engine (32 stages, 320 cycles: II = 10), and the two-AES-engine
// counter-prediction configuration (k = 2).
type Pipeline struct {
	II      Time
	Latency Time
	next    []Time // per-engine next issue slot
	issues  uint64
	busy    Time
}

// NewPipeline creates a k-engine pipeline with the given initiation interval
// and latency. k must be >= 1.
func NewPipeline(k int, ii, latency Time) *Pipeline {
	if k < 1 {
		panic("sim: pipeline needs at least one engine")
	}
	return &Pipeline{II: ii, Latency: latency, next: make([]Time, k)}
}

// IssueStart schedules one operation at or after now on the least-loaded
// engine and returns the cycle at which its result is available and the
// cycle at which it issued.
func (p *Pipeline) IssueStart(now Time) (done, start Time) {
	best := 0
	for i := 1; i < len(p.next); i++ {
		if p.next[i] < p.next[best] {
			best = i
		}
	}
	start = now
	if p.next[best] > start {
		start = p.next[best]
	}
	p.next[best] = start + p.II
	p.issues++
	p.busy += p.II
	return start + p.Latency, start
}

// Issues reports how many operations have been issued.
func (p *Pipeline) Issues() uint64 { return p.issues }

// Utilization reports issue-slot occupancy over [0, end) across all
// engines: busy cycles divided by engines x end. 0 for end == 0.
func (p *Pipeline) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(p.busy) / (float64(end) * float64(len(p.next)))
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
