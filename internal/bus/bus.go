// Package bus models the processor-memory data bus of the simulated system:
// 128 bits wide at 600 MHz under a 5 GHz core, so a 64-byte block transfer
// occupies the bus for four bus cycles, about 33 processor cycles. Transfers
// are served FIFO; queuing delay emerges from the shared timeline.
package bus

import (
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// Config describes the bus.
type Config struct {
	// WidthBytes is the data width per bus cycle (16 for 128 bits).
	WidthBytes int
	// CPUCyclesPerBusCycle is the core-to-bus clock ratio times one; with a
	// 5 GHz core and 600 MHz bus this is 8 (we round 8.33 down; the paper's
	// 200-cycle round trip subsumes the remainder).
	CPUCyclesPerBusCycle sim.Time
}

// DefaultConfig matches the paper's Section 5 parameters.
func DefaultConfig() Config {
	return Config{WidthBytes: 16, CPUCyclesPerBusCycle: 8}
}

// Bus is the shared transfer resource.
type Bus struct {
	cfg Config
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

// New creates a bus.
func New(cfg Config) *Bus {
	if cfg.WidthBytes <= 0 || cfg.CPUCyclesPerBusCycle == 0 {
		panic("bus: invalid config")
	}
	return &Bus{cfg: cfg}
}

// Occupancy returns the bus cycles (in CPU cycles) needed to move n bytes.
func (b *Bus) Occupancy(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	busCycles := sim.Time((n + b.cfg.WidthBytes - 1) / b.cfg.WidthBytes)
	return busCycles * b.cfg.CPUCyclesPerBusCycle
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

// Reset clears the timeline and statistics.
func (b *Bus) Reset() {
	b.res.Reset()
	b.Transfers = 0
	b.Bytes = 0
}
