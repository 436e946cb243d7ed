package obsv

import (
	"bytes"
	"strings"
	"testing"
)

// fill drives a sampler through the same irregular access pattern twice
// callers use to check determinism: samples must land on exact interval
// multiples no matter how unevenly the "simulation" advances.
func fill(s *Sampler, upto uint64) {
	for now := uint64(7); now <= upto; now += 137 {
		if s.Due(now) {
			s.Tick(now)
		}
	}
}

func newTestSampler(capacity int) *Sampler {
	s := NewSampler(100, capacity)
	var calls uint64
	// Register out of order: dumps must still come out sorted.
	s.Series("zz.last", func(cycle uint64) float64 { return float64(cycle) })
	s.Series("aa.first", func(uint64) float64 { calls++; return float64(calls) })
	s.Series("mm.mid", func(uint64) float64 { return 0.5 })
	return s
}

func TestSamplerBoundariesAreExactMultiples(t *testing.T) {
	s := newTestSampler(0)
	fill(s, 1000)
	ts := s.Export()
	if len(ts.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for i, smp := range ts.Samples {
		if smp.Cycle%100 != 0 || smp.Cycle == 0 {
			t.Errorf("sample %d at cycle %d: not a positive interval multiple", i, smp.Cycle)
		}
		if i > 0 && smp.Cycle <= ts.Samples[i-1].Cycle {
			t.Errorf("sample cycles not strictly increasing: %d then %d", ts.Samples[i-1].Cycle, smp.Cycle)
		}
	}
	// Advancing from 7 by 137 reaches 967: boundaries 100..900 inclusive.
	if got := len(ts.Samples); got != 9 {
		t.Errorf("got %d samples, want 9 (boundaries 100..900)", got)
	}
}

func TestSamplerSeriesSorted(t *testing.T) {
	s := newTestSampler(0)
	want := []string{"aa.first", "mm.mid", "zz.last"}
	got := s.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	fill(s, 500)
	ts := s.Export()
	for i := range want {
		if ts.Series[i] != want[i] {
			t.Fatalf("Export().Series = %v, want %v", ts.Series, want)
		}
	}
	// zz.last probes the boundary cycle itself: values must be the exact
	// boundaries, proving probes see the boundary, not the ragged now.
	for _, smp := range ts.Samples {
		if smp.Values[2] != float64(smp.Cycle) {
			t.Errorf("cycle-probe value %g at cycle %d", smp.Values[2], smp.Cycle)
		}
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	s := NewSampler(10, 4)
	s.Series("c", func(cycle uint64) float64 { return float64(cycle) })
	s.Tick(100) // boundaries 10..100: 10 samples into a 4-slot ring
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := s.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := s.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	ts := s.Export()
	if ts.Overwritten != 6 {
		t.Fatalf("Export Overwritten = %d, want 6", ts.Overwritten)
	}
	// The ring keeps the newest window, oldest first.
	wantCycles := []uint64{70, 80, 90, 100}
	for i, smp := range ts.Samples {
		if smp.Cycle != wantCycles[i] {
			t.Fatalf("sample cycles = %v..., want %v", smp.Cycle, wantCycles)
		}
	}
}

func TestSamplerSampleAt(t *testing.T) {
	s := NewSampler(100, 0)
	s.Series("c", func(cycle uint64) float64 { return float64(cycle) })
	s.Tick(250) // samples at 100, 200
	s.SampleAt(273)
	ts := s.Export()
	if n := len(ts.Samples); n != 3 {
		t.Fatalf("got %d samples, want 3", n)
	}
	if last := ts.Samples[2].Cycle; last != 273 {
		t.Fatalf("final sample at %d, want 273", last)
	}
	// A second SampleAt at the same cycle must not duplicate.
	s.SampleAt(273)
	if n := len(s.Export().Samples); n != 3 {
		t.Fatalf("duplicate end-of-run sample recorded (%d samples)", n)
	}
	// Sampling must not resume behind the final sample.
	if s.Due(273) {
		t.Fatal("sampler still due at the final sampled cycle")
	}
}

func TestSamplerDumpDeterminism(t *testing.T) {
	render := func() (string, string) {
		s := newTestSampler(0)
		fill(s, 2000)
		s.SampleAt(2047)
		var j, c bytes.Buffer
		if err := s.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Error("WriteJSON not byte-deterministic across identical runs")
	}
	if c1 != c2 {
		t.Error("WriteCSV not byte-deterministic across identical runs")
	}
	if !strings.HasPrefix(c1, "cycle,aa.first,mm.mid,zz.last\n") {
		t.Errorf("CSV header = %q", strings.SplitN(c1, "\n", 2)[0])
	}
	if !strings.Contains(j1, `"interval_cycles": 100`) {
		t.Error("JSON missing interval_cycles")
	}
}

func TestSamplerEmitTrace(t *testing.T) {
	s := newTestSampler(0)
	fill(s, 1000)
	rec := NewRecorder(0)
	s.EmitTrace(rec)
	wantPerTrack := s.Len()
	last := map[string]uint64{}
	n := map[string]int{}
	for _, e := range rec.events {
		if e.Ph != 'C' {
			t.Fatalf("EmitTrace produced a %q event", e.Ph)
		}
		if prev, ok := last[e.Name]; ok && e.Ts < prev {
			t.Errorf("track %s timestamps not monotone: %d after %d", e.Name, e.Ts, prev)
		}
		last[e.Name] = e.Ts
		n[e.Name]++
	}
	for _, name := range s.Names() {
		if n[name] != wantPerTrack {
			t.Errorf("track %s has %d samples, want %d", name, n[name], wantPerTrack)
		}
	}
	// Counter events render per-process: they must not claim thread rows.
	for _, track := range rec.tracks {
		if track == "counter" {
			t.Error("counter events registered a thread row")
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"C"`) {
		t.Error("rendered trace has no C-phase events")
	}
	if !strings.Contains(buf.String(), `"value":`) {
		t.Error("rendered counter events carry no value arg")
	}
}

func TestSamplerTickDoesNotAllocate(t *testing.T) {
	s := NewSampler(1, 1024)
	s.Series("a", func(uint64) float64 { return 1 })
	s.Series("b", func(cycle uint64) float64 { return float64(cycle) })
	s.Tick(1) // freeze and allocate the ring up front
	now := uint64(1)
	avg := testing.AllocsPerRun(500, func() {
		now++
		if s.Due(now) {
			s.Tick(now)
		}
	})
	if avg != 0 {
		t.Errorf("sampler tick allocates %.1f times per sample, want 0", avg)
	}
}

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	if s.Due(100) {
		t.Error("nil sampler is due")
	}
	s.Tick(100)
	s.SampleAt(5)
	s.Series("x", func(uint64) float64 { return 0 })
	s.EmitTrace(nil)
	if s.Len() != 0 || s.Total() != 0 || s.Overwritten() != 0 || s.Interval() != 0 {
		t.Error("nil sampler reports nonzero state")
	}
	if got := s.String(); got != "Sampler(nil)" {
		t.Errorf("nil String() = %q", got)
	}
	ts := s.Export()
	if len(ts.Samples) != 0 || len(ts.Series) != 0 {
		t.Error("nil sampler exports data")
	}
}

func TestSamplerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero interval", func() { NewSampler(0, 8) })
	mustPanic("nil probe", func() {
		NewSampler(10, 8).Series("x", nil)
	})
	mustPanic("duplicate series", func() {
		s := NewSampler(10, 8)
		s.Series("x", func(uint64) float64 { return 0 })
		s.Series("x", func(uint64) float64 { return 0 })
	})
	mustPanic("series after freeze", func() {
		s := NewSampler(10, 8)
		s.Series("x", func(uint64) float64 { return 0 })
		s.Tick(10)
		s.Series("y", func(uint64) float64 { return 0 })
	})
	mustPanic("bad series name", func() {
		NewSampler(10, 8).Series("Bad Name", func(uint64) float64 { return 0 })
	})
}
