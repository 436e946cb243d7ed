// Package bus models the processor-memory data bus of the simulated system:
// 128 bits wide at 600 MHz under a 5 GHz core, so a 64-byte block transfer
// occupies the bus for four bus cycles, about 33 processor cycles. Transfers
// are served FIFO; queuing delay emerges from the shared timeline.
package bus

import (
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// The bus of Section 5, which no experiment varies.
const (
	// WidthBytes is the data width per bus cycle: 128 bits.
	WidthBytes = 16
	// CPUCyclesPerBusCycle is the core-to-bus clock ratio: 5 GHz over
	// 600 MHz is 8.33, rounded down; the paper's 200-cycle round trip
	// subsumes the remainder.
	CPUCyclesPerBusCycle = 8
)

// Bus is the shared transfer resource. The zero value is an idle bus.
type Bus struct {
	res sim.Resource

	// Transfers and Bytes accumulate traffic statistics.
	Transfers uint64
	Bytes     uint64

	// Observability handles; all nil-safe, so an uninstrumented bus pays
	// one predicted branch per call.
	hWait *obsv.Histogram
	rec   *obsv.Recorder
}

// Instrument registers the bus's wait histogram in reg and attaches the
// trace recorder. Either argument may be nil.
func (b *Bus) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	b.hWait = reg.Histogram("bus.wait")
	b.rec = rec
}

// Occupancy returns the bus cycles (in CPU cycles) needed to move n bytes.
func (b *Bus) Occupancy(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	busCycles := sim.Time((n + WidthBytes - 1) / WidthBytes)
	return busCycles * CPUCyclesPerBusCycle
}

// Transfer reserves the bus for an n-byte transfer arriving at now and
// returns the cycle the transfer starts.
func (b *Bus) Transfer(now sim.Time, n int) sim.Time {
	b.Transfers++
	b.Bytes += uint64(n)
	occ := b.Occupancy(n)
	start := b.res.Acquire(now, occ)
	b.hWait.Observe(uint64(start - now))
	b.rec.Span("bus", "xfer", uint64(start), uint64(start+occ))
	return start
}

// BusyCycles reports cumulative occupancy, for utilization stats.
func (b *Bus) BusyCycles() sim.Time { return b.res.BusyCycles() }

// QueueDelay reports cumulative queuing delay imposed on transfers.
func (b *Bus) QueueDelay() sim.Time { return b.res.WaitedCycles() }

// Utilization is the fraction of [0, end) the bus spent transferring.
func (b *Bus) Utilization(end sim.Time) float64 { return b.res.Utilization(end) }
