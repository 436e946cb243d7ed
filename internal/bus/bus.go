// Package bus models the processor-memory data bus of the simulated system:
// 128 bits wide at 600 MHz under a 5 GHz core, so a 64-byte block transfer
// occupies the bus for four bus cycles, about 33 processor cycles. Transfers
// are served FIFO; queuing delay emerges from the shared timeline.
package bus

import "secmem/internal/sim"

// The bus of Section 5, which no experiment varies.
const (
	// WidthBytes is the data width per bus cycle: 128 bits.
	WidthBytes = 16
	// CPUCyclesPerBusCycle is the core-to-bus clock ratio: 5 GHz over
	// 600 MHz is 8.33, rounded down; the paper's 200-cycle round trip
	// subsumes the remainder.
	CPUCyclesPerBusCycle = 8
)

// Bus is the shared transfer resource: a one-server timeline, whose issue
// count is the number of transfers.
type Bus struct {
	sim.Timeline

	// Bytes accumulates the bytes transferred.
	Bytes uint64
}

// New returns an idle bus.
func New() *Bus { return &Bus{Timeline: sim.NewTimeline(1)} }

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
	b.Bytes += uint64(n)
	occ := b.Occupancy(n)
	start, _ := b.Reserve(now, occ, occ, "xfer")
	return start
}

// QueueDelay reports cumulative queuing delay imposed on transfers.
func (b *Bus) QueueDelay() sim.Time { return b.WaitedCycles() }
