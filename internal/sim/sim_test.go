package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceUncontended(t *testing.T) {
	var r Resource
	if got := r.Acquire(100, 10); got != 100 {
		t.Errorf("first acquire start = %d, want 100", got)
	}
	if got := r.Acquire(200, 10); got != 200 {
		t.Errorf("idle acquire start = %d, want 200", got)
	}
	if r.WaitedCycles() != 0 {
		t.Errorf("waited = %d, want 0", r.WaitedCycles())
	}
}

func TestResourceQueuing(t *testing.T) {
	var r Resource
	r.Acquire(0, 33)
	if got := r.Acquire(0, 33); got != 33 {
		t.Errorf("second start = %d, want 33", got)
	}
	if got := r.Acquire(10, 33); got != 66 {
		t.Errorf("third start = %d, want 66", got)
	}
	if r.BusyCycles() != 99 {
		t.Errorf("busy = %d, want 99", r.BusyCycles())
	}
	if r.WaitedCycles() != 33+56 {
		t.Errorf("waited = %d, want 89", r.WaitedCycles())
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	if got := r.Utilization(0); got != 0 {
		t.Errorf("empty utilization over zero cycles = %v, want 0", got)
	}
	r.Acquire(0, 25)
	r.Acquire(50, 25)
	if got := r.Utilization(100); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5 (50 busy of 100)", got)
	}
	if got := r.Utilization(200); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25 (50 busy of 200)", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Errorf("utilization over zero cycles = %v, want 0", got)
	}
}

func TestPipelineUtilization(t *testing.T) {
	p := NewPipeline(2, 5, 80)
	if got := p.Utilization(100); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}
	// Four issues occupy 4 x II = 20 slot-cycles across 2 engines.
	for i := 0; i < 4; i++ {
		issue(p, 0)
	}
	if got := p.Utilization(100); got != 0.1 {
		t.Errorf("utilization = %v, want 0.1 (20 of 2x100)", got)
	}
	if got := p.Utilization(0); got != 0 {
		t.Errorf("utilization over zero cycles = %v, want 0", got)
	}
}

func TestResourceMonotonicStarts(t *testing.T) {
	f := func(arrivals []uint16, occ uint8) bool {
		var r Resource
		var now, last Time
		o := Time(occ%50) + 1
		for _, a := range arrivals {
			now += Time(a % 100)
			start := r.Acquire(now, o)
			if start < now || start < last {
				return false
			}
			last = start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPipelineSingleEngine(t *testing.T) {
	p := NewPipeline(1, 5, 80)
	// Back-to-back issues at cycle 0 stagger by II and complete II apart.
	if got := issue(p, 0); got != 80 {
		t.Errorf("first done = %d, want 80", got)
	}
	if got := issue(p, 0); got != 85 {
		t.Errorf("second done = %d, want 85", got)
	}
	if got := issue(p, 0); got != 90 {
		t.Errorf("third done = %d, want 90", got)
	}
	// After the pipeline drains, a new issue is unqueued.
	if got := issue(p, 1000); got != 1080 {
		t.Errorf("idle done = %d, want 1080", got)
	}
	if p.Issues() != 4 {
		t.Errorf("issues = %d, want 4", p.Issues())
	}
}

func TestPipelineTwoEngines(t *testing.T) {
	p := NewPipeline(2, 5, 80)
	// Two engines absorb two issues in the same cycle with no stagger.
	if got := issue(p, 0); got != 80 {
		t.Errorf("first done = %d", got)
	}
	if got := issue(p, 0); got != 80 {
		t.Errorf("second done = %d, want 80 (second engine)", got)
	}
	if got := issue(p, 0); got != 85 {
		t.Errorf("third done = %d, want 85", got)
	}
}

func TestPipelineIssueStart(t *testing.T) {
	p := NewPipeline(1, 10, 320)
	done, start := p.IssueStart(7)
	if start != 7 || done != 327 {
		t.Errorf("IssueStart = (%d, %d), want (327, 7)", done, start)
	}
	done, start = p.IssueStart(8)
	if start != 17 || done != 337 {
		t.Errorf("queued IssueStart = (%d, %d), want (337, 17)", done, start)
	}
}

func TestPipelineThroughputBound(t *testing.T) {
	// N issues at cycle 0 through a k-engine II-interval pipeline must
	// finish no earlier than latency + ceil(N/k - 1)*II.
	f := func(nRaw, kRaw, iiRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw%4) + 1
		ii := Time(iiRaw%10) + 1
		p := NewPipeline(k, ii, 100)
		var last Time
		for i := 0; i < n; i++ {
			last = issue(p, 0)
		}
		perEngine := Time((n + k - 1) / k)
		want := 100 + (perEngine-1)*ii
		return last == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipelineRejectsZeroEngines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipeline(0, ...) did not panic")
		}
	}()
	NewPipeline(0, 1, 1)
}

func TestMaxHelpers(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
}

// issue issues one operation and returns when its result is available.
func issue(p *Pipeline, now Time) Time {
	done, _ := p.IssueStart(now)
	return done
}
