package engine

import "testing"

// TestAESLatencyAndPipelining pins the paper's AES engine: an 80-cycle
// latency and a 16-stage pipeline, so one issue every 5 cycles.
func TestAESLatencyAndPipelining(t *testing.T) {
	a := NewAES(1)
	if got := a.Issue(100); got != 180 {
		t.Errorf("pad done = %d, want 180", got)
	}
	// Next issue in the same cycle staggers by the 5-cycle II.
	if got := a.Issue(100); got != 185 {
		t.Errorf("second pad done = %d, want 185", got)
	}
}

func TestAESBlockPads(t *testing.T) {
	a := NewAES(1)
	// Four chunk pads issue back to back: last one is +3*II.
	if got := a.GenerateBlockPads(0); got != 80+3*5 {
		t.Errorf("block pad done = %d, want 95", got)
	}
	if a.Issues() != 4 {
		t.Errorf("issues = %d", a.Issues())
	}
}

func TestTwoAESEngines(t *testing.T) {
	one := NewAES(1)
	two := NewAES(2)
	// Eight pads at cycle 0: one engine finishes at 80+7*5, two engines
	// split the work and finish at 80+3*5.
	var d1, d2 uint64
	for i := 0; i < 8; i++ {
		d1 = one.Issue(0)
		d2 = two.Issue(0)
	}
	if d1 != 115 || d2 != 95 {
		t.Errorf("one engine done %d (want 115), two engines done %d (want 95)", d1, d2)
	}
}

func TestSHA1LatencySweep(t *testing.T) {
	for _, lat := range []uint64{80, 160, 320, 640} {
		s := NewSHA1(lat)
		if got := s.Issue(50); got != 50+lat {
			t.Errorf("latency %d: hash done = %d, want %d", lat, got, 50+lat)
		}
	}
}

func TestSHA1IIScalesWithLatency(t *testing.T) {
	s := NewSHA1(320)
	s.Issue(0)
	if got := s.Issue(0); got != 330 {
		t.Errorf("second hash done = %d, want 330 (II=10)", got)
	}
}

func TestGCMAuthTail(t *testing.T) {
	if got := GCMAuthTail(4); got != 5 {
		t.Errorf("GCMAuthTail(4) = %d, want 5", got)
	}
}
