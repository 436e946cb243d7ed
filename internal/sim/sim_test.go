package sim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"secmem/internal/obsv"
)

// The Resource tests drive a one-server timeline whose requests hold it
// until they complete, as the bus's do; the Pipeline tests drive a bank
// of pipelines, as the crypto engines and DRAM do.

func TestResourceUncontended(t *testing.T) {
	r := NewTimeline(1)
	if got := acquire(&r, 100, 10); got != 100 {
		t.Errorf("first acquire start = %d, want 100", got)
	}
	if got := acquire(&r, 200, 10); got != 200 {
		t.Errorf("idle acquire start = %d, want 200", got)
	}
	if r.WaitedCycles() != 0 {
		t.Errorf("waited = %d, want 0", r.WaitedCycles())
	}
}

func TestResourceQueuing(t *testing.T) {
	r := NewTimeline(1)
	acquire(&r, 0, 33)
	if got := acquire(&r, 0, 33); got != 33 {
		t.Errorf("second start = %d, want 33", got)
	}
	if got := acquire(&r, 10, 33); got != 66 {
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
	r := NewTimeline(1)
	if got := r.Utilization(0); got != 0 {
		t.Errorf("empty utilization over zero cycles = %v, want 0", got)
	}
	acquire(&r, 0, 25)
	acquire(&r, 50, 25)
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
	p := NewTimeline(2)
	if got := p.Utilization(100); got != 0 {
		t.Errorf("idle utilization = %v, want 0", got)
	}
	// Four issues occupy 4 x II = 20 slot-cycles across 2 engines.
	for i := 0; i < 4; i++ {
		issue(&p, 0, 5, 80)
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
		r := NewTimeline(1)
		var now, last Time
		o := Time(occ%50) + 1
		for _, a := range arrivals {
			now += Time(a % 100)
			start := acquire(&r, now, o)
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
	p := NewTimeline(1)
	// Back-to-back issues at cycle 0 stagger by II and complete II apart.
	if got := issue(&p, 0, 5, 80); got != 80 {
		t.Errorf("first done = %d, want 80", got)
	}
	if got := issue(&p, 0, 5, 80); got != 85 {
		t.Errorf("second done = %d, want 85", got)
	}
	if got := issue(&p, 0, 5, 80); got != 90 {
		t.Errorf("third done = %d, want 90", got)
	}
	// After the pipeline drains, a new issue is unqueued.
	if got := issue(&p, 1000, 5, 80); got != 1080 {
		t.Errorf("idle done = %d, want 1080", got)
	}
	if p.Issues() != 4 {
		t.Errorf("issues = %d, want 4", p.Issues())
	}
}

func TestPipelineTwoEngines(t *testing.T) {
	p := NewTimeline(2)
	// Two engines absorb two issues in the same cycle with no stagger.
	if got := issue(&p, 0, 5, 80); got != 80 {
		t.Errorf("first done = %d", got)
	}
	if got := issue(&p, 0, 5, 80); got != 80 {
		t.Errorf("second done = %d, want 80 (second engine)", got)
	}
	if got := issue(&p, 0, 5, 80); got != 85 {
		t.Errorf("third done = %d, want 85", got)
	}
}

func TestPipelineIssueStart(t *testing.T) {
	p := NewTimeline(1)
	start, done := p.Reserve(7, 10, 320, "hash")
	if start != 7 || done != 327 {
		t.Errorf("Reserve = (%d, %d), want (7, 327)", start, done)
	}
	start, done = p.Reserve(8, 10, 320, "hash")
	if start != 17 || done != 337 {
		t.Errorf("queued Reserve = (%d, %d), want (17, 337)", start, done)
	}
}

func TestPipelineThroughputBound(t *testing.T) {
	// N issues at cycle 0 through a k-engine II-interval pipeline must
	// finish no earlier than latency + ceil(N/k - 1)*II.
	f := func(nRaw, kRaw, iiRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw%4) + 1
		ii := Time(iiRaw%10) + 1
		p := NewTimeline(k)
		var last Time
		for i := 0; i < n; i++ {
			last = issue(&p, 0, ii, 100)
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
			t.Fatal("NewTimeline(0) did not panic")
		}
	}()
	NewTimeline(0)
}

// TestObserveRecordsWaitAndSpan: an observed timeline puts each request's
// wait in its histogram and its [start, done) span, named by the request,
// on its track; an unobserved one records nothing and places the same.
func TestObserveRecordsWaitAndSpan(t *testing.T) {
	reg := obsv.NewRegistry()
	rec := obsv.NewRecorder(0)
	p, bare := NewTimeline(1), NewTimeline(1)
	p.Observe(reg.Histogram("eng.wait"), rec, "eng")
	for i := 0; i < 2; i++ {
		start, done := p.Reserve(0, 5, 80, "pad")
		if wantStart, wantDone := bare.Reserve(0, 5, 80, "pad"); start != wantStart || done != wantDone {
			t.Errorf("observed request %d = (%d, %d), unobserved (%d, %d)", i, start, done, wantStart, wantDone)
		}
	}
	if h := reg.Snapshot().Histograms["eng.wait"]; h.Count != 2 || h.Sum != 5 {
		t.Errorf("wait histogram holds %d waits summing to %d, want 2 summing to 5", h.Count, h.Sum)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"args":{"name":"eng"}`,
		`"name":"pad","cat":"eng","ph":"X","ts":0,"dur":80`,
		`"name":"pad","cat":"eng","ph":"X","ts":5,"dur":80`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace lacks %s:\n%s", want, buf.String())
		}
	}
}

// acquire holds t for occ cycles from now, or from when it frees, and
// returns the start.
func acquire(t *Timeline, now, occ Time) Time {
	start, _ := t.Reserve(now, occ, occ, "xfer")
	return start
}

// issue issues one operation and returns when its result is available.
func issue(p *Timeline, now, ii, latency Time) Time {
	_, done := p.Reserve(now, ii, latency, "op")
	return done
}
