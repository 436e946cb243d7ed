package reenc

import "testing"

func TestAllocateFreeRegister(t *testing.T) {
	f := NewFile(8, 64)
	r, start := f.Allocate(100, 0x1000)
	if start != 100 {
		t.Errorf("start = %d, want 100 (no stall)", start)
	}
	if r.PageAddr != 0x1000 || r.remaining != 64 {
		t.Errorf("register = %+v", r)
	}
	if f.Stats.PageReencs != 1 || f.Stats.StallCycles != 0 {
		t.Errorf("stats = %+v", f.Stats)
	}
}

func TestDoneBits(t *testing.T) {
	f := NewFile(1, 4)
	r, _ := f.Allocate(0, 0)
	if r.done[2] {
		t.Error("done bit set at allocation")
	}
	if !r.MarkDone(2) {
		t.Error("first MarkDone returned false")
	}
	if r.MarkDone(2) {
		t.Error("second MarkDone returned true")
	}
	if !r.done[2] || r.remaining != 3 {
		t.Errorf("state after MarkDone: done=%v remaining=%d", r.done[2], r.remaining)
	}
}

func TestCompleteTracksDuration(t *testing.T) {
	f := NewFile(2, 2)
	r, start := f.Allocate(50, 0x2000)
	r.MarkDone(0)
	r.MarkDone(1)
	f.Complete(r, start+5000)
	if f.Stats.TotalCycles != 5000 || f.Stats.MaxCycles != 5000 {
		t.Errorf("stats = %+v", f.Stats)
	}
	if got := f.Stats.MeanCycles(); got != 5000 {
		t.Errorf("mean = %v", got)
	}
}

func TestCompleteWithPendingPanics(t *testing.T) {
	f := NewFile(1, 2)
	r, _ := f.Allocate(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with pending blocks did not panic")
		}
	}()
	f.Complete(r, 100)
}

func TestSamePageStall(t *testing.T) {
	f := NewFile(8, 1)
	r, _ := f.Allocate(0, 0x3000)
	r.MarkDone(0)
	f.Complete(r, 1000)
	// Another overflow on the same page at cycle 500: must wait until 1000.
	if b := f.Busy(500, 0x3000); b == nil {
		t.Fatal("Busy did not find in-flight page")
	}
	_, start := f.Allocate(500, 0x3000)
	if start != 1000 {
		t.Errorf("start = %d, want 1000", start)
	}
	if f.Stats.SamePageStalls != 1 || f.Stats.StallCycles != 500 {
		t.Errorf("stats = %+v", f.Stats)
	}
	// After completion the page is no longer busy.
	if b := f.Busy(2000, 0x3000); b != nil {
		t.Error("Busy found freed register")
	}
}

func TestAllRegistersBusyStalls(t *testing.T) {
	f := NewFile(2, 1)
	r1, _ := f.Allocate(0, 0x1000)
	r1.MarkDone(0)
	f.Complete(r1, 300)
	r2, _ := f.Allocate(0, 0x2000)
	r2.MarkDone(0)
	f.Complete(r2, 500)
	// Third page at cycle 100: both busy; earliest frees at 300.
	_, start := f.Allocate(100, 0x3000)
	if start != 300 {
		t.Errorf("start = %d, want 300", start)
	}
	if f.Stats.AllocStalls != 1 || f.Stats.StallCycles != 200 {
		t.Errorf("stats = %+v", f.Stats)
	}
}

func TestConcurrencyHighWaterMark(t *testing.T) {
	f := NewFile(4, 1)
	for i := 0; i < 3; i++ {
		r, start := f.Allocate(0, uint64(0x1000*(i+1)))
		r.MarkDone(0)
		f.Complete(r, start+10000)
	}
	if f.Stats.MaxConcurrent != 3 {
		t.Errorf("max concurrent = %d, want 3", f.Stats.MaxConcurrent)
	}
}

func TestOnChipFraction(t *testing.T) {
	f := NewFile(1, 4)
	f.NoteOnChip()
	f.NoteOnChip()
	f.NoteFetched()
	f.NoteFetched()
	if got := f.Stats.OnChipFraction(); got != 0.5 {
		t.Errorf("on-chip fraction = %v", got)
	}
}

func TestStorageBits(t *testing.T) {
	f := NewFile(8, 64)
	bits := f.StorageBits()
	// The paper says the RSR file costs under 150 bytes.
	if bits > 150*8 {
		t.Errorf("storage = %d bits (%d bytes), exceeds paper's 150-byte bound", bits, bits/8)
	}
	if bits == 0 {
		t.Error("storage = 0")
	}
}

func TestZeroStatsAccessors(t *testing.T) {
	var s Stats
	if s.MeanCycles() != 0 || s.OnChipFraction() != 0 {
		t.Error("zero stats accessors nonzero")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFile(0, ...) did not panic")
		}
	}()
	NewFile(0, 64)
}
