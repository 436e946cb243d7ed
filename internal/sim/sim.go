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
// guarantee that: a transaction reserves the bus for its later phases
// (counter and Merkle fetches, write-backs) at future cycles, and a later
// transaction that starts earlier then queues behind those slots instead
// of using the idle gap before them. On config.Default() at 2M
// instructions, 25% (crafty) to 69% (mcf) of bus requests arrive earlier
// than a request already placed, and they carry 67-99.9% of all bus wait.
// Pipeline (DRAM, crypto engines) sees no such reordering, because DRAM
// follows the bus grant. How far this moves the figures, and whether the
// bus should place requests earliest-fit instead, is item 9 of ROADMAP.md
// ("The bus timeline's reordering error").
package sim

// Time is a point in simulated time, in processor cycles.
type Time = uint64

// Resource is a unit that serves one request at a time in FIFO order, each
// request occupying it for a caller-specified number of cycles. The zero
// value is a free resource at cycle 0.
type Resource struct {
	nextFree Time
	busy     Time // total occupied cycles, for utilization reporting
	requests uint64
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
	r.requests++
	return start
}

// NextFree reports when the resource next becomes free.
func (r *Resource) NextFree() Time { return r.nextFree }

// BusyCycles reports the cumulative cycles the resource has been occupied.
func (r *Resource) BusyCycles() Time { return r.busy }

// Requests reports how many acquisitions have been made.
func (r *Resource) Requests() uint64 { return r.requests }

// Waited reports the cumulative queuing delay imposed on requests.
func (r *Resource) Waited() Time { return r.waited }

// WaitedCycles is an alias for Waited, kept alongside BusyCycles for the
// existing statistics call sites.
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

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() { *r = Resource{} }

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

// Issue schedules one operation at or after now on the least-loaded engine
// and returns the cycle at which its result is available.
func (p *Pipeline) Issue(now Time) Time {
	done, _ := p.IssueStart(now)
	return done
}

// IssueStart is Issue but also reports the issue cycle, which callers use
// when an operation's inputs become available at different times.
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

// BusyCycles reports cumulative issue-slot occupancy across engines.
func (p *Pipeline) BusyCycles() Time { return p.busy }

// Utilization reports issue-slot occupancy over [0, end) across all
// engines: busy cycles divided by engines x end. 0 for end == 0.
func (p *Pipeline) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(p.busy) / (float64(end) * float64(len(p.next)))
}

// Engines reports the configured engine count.
func (p *Pipeline) Engines() int { return len(p.next) }

// Reset clears all engine timelines.
func (p *Pipeline) Reset() {
	for i := range p.next {
		p.next[i] = 0
	}
	p.issues = 0
	p.busy = 0
}

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Max3 returns the latest of three times.
func Max3(a, b, c Time) Time { return Max(Max(a, b), c) }
