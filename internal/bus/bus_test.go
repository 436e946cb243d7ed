package bus

import "testing"

// TestOccupancy pins the Section 5 bus: 16 bytes per bus cycle, and 8
// core cycles per bus cycle.
func TestOccupancy(t *testing.T) {
	b := New()
	cases := []struct {
		bytes int
		want  uint64
	}{
		{0, 0}, {1, 8}, {16, 8}, {17, 16}, {64, 32}, {72, 40},
	}
	for _, c := range cases {
		if got := b.Occupancy(c.bytes); got != c.want {
			t.Errorf("Occupancy(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestTransferQueuing(t *testing.T) {
	b := New()
	if got := b.Transfer(0, 64); got != 0 {
		t.Errorf("first transfer start = %d", got)
	}
	if got := b.Transfer(0, 64); got != 32 {
		t.Errorf("second transfer start = %d, want 32", got)
	}
	if b.Issues() != 2 || b.Bytes != 128 {
		t.Errorf("stats = %d transfers, %d bytes", b.Issues(), b.Bytes)
	}
	if b.QueueDelay() != 32 {
		t.Errorf("queue delay = %d, want 32", b.QueueDelay())
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// 100 back-to-back 64-byte transfers at cycle 0 must take 100*32 cycles
	// of bus occupancy: the bus is the bandwidth bound.
	b := New()
	var last uint64
	for i := 0; i < 100; i++ {
		last = b.Transfer(0, 64)
	}
	if want := uint64(99 * 32); last != want {
		t.Errorf("last start = %d, want %d", last, want)
	}
	if b.BusyCycles() != 100*32 {
		t.Errorf("busy = %d", b.BusyCycles())
	}
}
