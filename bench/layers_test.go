package main

import (
	"testing"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/cpu"
	"secmem/internal/sim"
)

// fakeClock advances by readCost on every read; work done between reads
// advances it through advance.
type fakeClock struct{ t, readCost int64 }

func (c *fakeClock) now() int64 {
	t := c.t
	c.t += c.readCost
	return t
}

func (c *fakeClock) advance(d int64) { c.t += d }

// stepSource is a trace source whose every Next takes cost fake nanoseconds.
type stepSource struct {
	clk  *fakeClock
	cost int64
}

func (s stepSource) Next() (cpu.Event, bool) {
	s.clk.advance(s.cost)
	return cpu.Event{}, true
}

func TestSampledEstimatorSubtractsBiasAndScales(t *testing.T) {
	clk := &fakeClock{readCost: 7}
	bias := calibrateBias(clk.now, 101)
	if bias != 7 {
		t.Fatalf("bias = %d, want the 7 ns clock read", bias)
	}
	s := &timedSource{src: stepSource{clk, 100}, now: clk.now}
	for i := 0; i < 640; i++ {
		s.Next()
	}
	e := s.est
	if e.Calls != 640 || e.Samples != 640/sampleEvery {
		t.Fatalf("calls=%d samples=%d, want 640 and one per %d calls", e.Calls, e.Samples, sampleEvery)
	}
	if e.Bias != 7*int64(e.Samples) {
		t.Errorf("subtracted %d ns of bias, want the 7 ns empty span per sample", e.Bias)
	}
	if got := e.perCall(); got != 100 {
		t.Errorf("perCall = %v ns, want 100 (107 ns span less the 7 ns in-place bias)", got)
	}
	if got := e.total(); got != 640*100 {
		t.Errorf("total = %v ns, want 64000: the sampled mean scaled by calls over samples", got)
	}
}

func TestSampledEstimatorClampsAtZero(t *testing.T) {
	var e estimator
	e.Calls = 2 * sampleEvery
	e.add(5, 40) // a span shorter than the clock's own cost
	e.add(45, 40)
	if got := e.perCall(); got != 2.5 {
		t.Errorf("perCall = %v, want 2.5: the short span counts as 0, not -35", got)
	}
}

func TestSampledEstimatorIgnoresRareOutlier(t *testing.T) {
	var e estimator
	for i := 0; i < 160; i++ {
		d := int64(1000)
		if i == 77 {
			d = 750_000 // one descheduled span
		}
		e.add(d, 0)
	}
	if got := e.perCall(); got != 1000 {
		t.Errorf("perCall = %v, want 1000 despite one 750 us sample", got)
	}
}

func TestEstimatorMergeContinuesRoundRobin(t *testing.T) {
	var whole, a, b estimator
	for i := 0; i < 37; i++ {
		d := int64(i * i)
		whole.add(d, 0)
		if i < 21 {
			a.add(d, 0)
		} else {
			b.add(d, 0)
		}
	}
	a.merge(b)
	if a != whole {
		t.Errorf("merged %+v, want %+v", a, whole)
	}
}

func TestClassifyAgainstConfiguredLatencies(t *testing.T) {
	cfg := config.Default()
	mem, err := core.NewMemSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := cfg.L1.LatencyCycles
	// Five blocks one L1 way-stride apart share an L1 set (4 ways) but
	// land in different L2 sets, so the fifth evicts the first from L1
	// only.
	stride := uint64(cfg.L1.SizeBytes / cfg.L1.Ways)
	var now sim.Time = 1000
	access := func(addr uint64) accessClass {
		now += 10_000
		return classify(now, mem.Access(now, addr, false), l1)
	}
	if c := access(0); c != l2Miss {
		t.Errorf("cold access classified %d, want L2 miss", c)
	}
	if c := access(0); c != l1Hit {
		t.Errorf("repeat access classified %d, want L1 hit", c)
	}
	for i := uint64(1); i <= 4; i++ {
		access(i * stride)
	}
	if c := access(0); c != l2Hit {
		t.Errorf("access after L1 eviction classified %d, want L2 hit", c)
	}
	for _, tc := range []struct {
		r    core.AccessResult
		want accessClass
	}{
		{core.AccessResult{DataReady: now + l1}, l1Hit},
		{core.AccessResult{DataReady: now + l1 + cfg.L2.LatencyCycles}, l2Hit},
		{core.AccessResult{DataReady: now + l1, L2Miss: true}, l2Miss},
	} {
		if got := classify(now, tc.r, l1); got != tc.want {
			t.Errorf("classify(%+v) = %d, want %d", tc.r, got, tc.want)
		}
	}
}
