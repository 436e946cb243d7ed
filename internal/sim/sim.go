// Package sim provides the timing primitive of the secure-memory simulator:
// a cycle type and the shared timeline every memory transaction reserves.
//
// The simulator is transaction-ordered rather than event-driven: the CPU
// model walks the instruction stream in program order and each memory
// transaction greedily reserves the resources it needs on shared
// timelines. Section 5's machine has four: the bus, DRAM, the AES pipeline
// and the SHA-1 pipeline. Each is one Timeline, a bank of identical
// servers, and a request takes the server that frees first, starting at
// the later of its arrival and that server's next free cycle. This
// reproduces FIFO queuing delay and bandwidth saturation exactly only when
// requests are presented in nondecreasing time order, and the in-order
// transaction walk does not guarantee that: a transaction reserves its
// later phases (counter and Merkle fetches, pads, write-backs) at future
// cycles, and a later transaction that starts earlier then queues behind
// those slots instead of using the idle gap before them. At 2M
// instructions on crafty, twolf, swim and mcf, 19-76% of bus requests
// arrive earlier than a request already placed, and they carry 52-100% of
// all bus wait, on the baseline and on protected machines. The AES engine
// reorders too: under Split+GCM, 22-60% of its issues arrive early,
// carrying 77-100% of all AES wait. DRAM does not, because it follows the
// bus grant. How far this moves the figures is item 9 of ROADMAP.md ("The
// shared timelines are not work-conserving: the bus and the crypto
// engines"); the placement rule is Reserve's choice of server and start,
// and oracle_test.go checks it against a per-cycle model.
package sim

import "secmem/internal/obsv"

// Time is a point in simulated time, in processor cycles.
type Time = uint64

// Timeline is a bank of identical servers that requests reserve in the
// order they are presented. A request occupies a server for occ cycles and
// completes lat cycles after it starts: a bus transfer holds the bus until
// it completes (lat = occ), while a pipelined engine takes a new operation
// every occ cycles and finishes each one lat cycles after it issues.
//
// A timeline records each request's wait in an optional histogram and its
// span on an optional recorder track (Observe); both are nil until then,
// and a nil one records nothing.
type Timeline struct {
	free   []Time // per server, the cycle after its last busy cycle
	busy   Time
	waited Time
	issues uint64

	wait  *obsv.Histogram
	rec   *obsv.Recorder
	track string
}

// NewTimeline returns an idle timeline of servers servers, at least one.
func NewTimeline(servers int) Timeline {
	if servers < 1 {
		panic("sim: a timeline needs at least one server")
	}
	return Timeline{free: make([]Time, servers)}
}

// Observe records each later request's wait in h and its span, under the
// name Reserve gives it, on rec's track. Either may be nil.
func (t *Timeline) Observe(h *obsv.Histogram, rec *obsv.Recorder, track string) {
	t.wait, t.rec, t.track = h, rec, track
}

// Reserve places a request arriving at now on the server that frees
// first, the lowest index on ties, for occ cycles from the later of now
// and that server's next free cycle. It returns the cycle the request
// starts and the cycle it completes, lat cycles later; name names its span.
func (t *Timeline) Reserve(now, occ, lat Time, name string) (start, done Time) {
	s := 0
	for i := 1; i < len(t.free); i++ {
		if t.free[i] < t.free[s] {
			s = i
		}
	}
	start = max(now, t.free[s])
	done = start + lat
	t.free[s] = start + occ
	t.busy += occ
	t.waited += start - now
	t.issues++
	t.wait.Observe(start - now)
	t.rec.Span(t.track, name, start, done)
	return start, done
}

// BusyCycles reports the cycles the servers have been occupied, summed.
func (t *Timeline) BusyCycles() Time { return t.busy }

// WaitedCycles reports the queuing delay imposed on requests, summed.
func (t *Timeline) WaitedCycles() Time { return t.waited }

// Issues reports how many requests have been placed.
func (t *Timeline) Issues() uint64 { return t.issues }

// Utilization reports the fraction of [0, end) the servers were occupied:
// busy cycles over servers x end. It returns 0 for end == 0 and can exceed
// 1 only if callers keep reserving past end (the caller chooses end,
// normally the run's final cycle).
func (t *Timeline) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(t.busy) / (float64(end) * float64(len(t.free)))
}
