package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// DefaultSamplerCapacity is the ring size a Sampler uses when none is
// given: 8192 samples of, say, 8 series is half a megabyte of float64s —
// enough for a multi-million-cycle run at a 1000-cycle interval before the
// ring starts overwriting its oldest window.
const DefaultSamplerCapacity = 8192

// Probe reads one instantaneous series value at a sample boundary. The
// cycle argument is the boundary being sampled, so rate- and
// utilization-style probes can normalize by elapsed time. Probes must not
// allocate: they run on the simulation hot path.
type Probe func(cycle uint64) float64

// Sampler is the cycle-driven time-series recorder behind the paper's
// trajectory figures: every interval simulated cycles it snapshots a fixed
// set of named probes (counter-cache hit rate, RSR occupancy, bus/DRAM
// utilization, Merkle traffic, re-encryption progress, ...) into a
// fixed-capacity ring. Sample boundaries are exact multiples of the
// interval regardless of how unevenly the simulation touches memory, so
// two identical runs produce byte-identical dumps.
//
// When the ring fills, the oldest samples are overwritten and counted in
// Overwritten — the recorder keeps the most recent window, and dumps say
// how much history they lost instead of silently truncating.
//
// A Sampler belongs to one simulated machine and, like a Registry, is
// not safe for concurrent use: the run that ticks it is its only user
// until the run returns and the ring is dumped. The nil Sampler discards
// everything.
type Sampler struct {
	interval uint64
	next     uint64 // next sample boundary

	names  []string // sorted; frozen at first sample
	probes []Probe  // parallel to names
	frozen bool

	capacity int
	cycles   []uint64  // ring of sample cycles
	data     []float64 // ring of capacity*len(names) values, row-major
	head     int       // next write slot
	count    int       // stored samples (<= capacity)
	total    uint64    // samples ever taken, including overwritten
}

// NewSampler builds a sampler taking one sample every interval cycles into
// a ring of capacity samples. interval must be positive; capacity <= 0
// selects DefaultSamplerCapacity. The first sample boundary is at cycle
// interval (cycle 0 holds nothing worth plotting).
func NewSampler(interval uint64, capacity int) *Sampler {
	if interval == 0 {
		panic("obsv: sampler interval must be positive")
	}
	if capacity <= 0 {
		capacity = DefaultSamplerCapacity
	}
	return &Sampler{interval: interval, next: interval, capacity: capacity}
}

// Series registers a named probe. Names follow the registry grammar
// ([a-z0-9_.], dotted hierarchy) and are kept sorted, so dump column order
// is independent of registration order. Registration must finish before
// the first sample is taken.
func (s *Sampler) Series(name string, p Probe) {
	if s == nil {
		return
	}
	checkName(name)
	if p == nil {
		panic("obsv: nil probe for series " + name)
	}
	if s.frozen {
		panic("obsv: Series(" + name + ") after sampling started")
	}
	i := sort.SearchStrings(s.names, name)
	if i < len(s.names) && s.names[i] == name {
		panic("obsv: duplicate series " + name)
	}
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = name
	s.probes = append(s.probes, nil)
	copy(s.probes[i+1:], s.probes[i:])
	s.probes[i] = p
}

// Due reports whether the simulation has crossed the next sample boundary.
// It is the one-branch hot-path guard: callers check Due before paying for
// Tick.
func (s *Sampler) Due(now uint64) bool {
	return s != nil && now >= s.next
}

// Tick records one sample per boundary crossed at or before now, each
// stamped with its exact boundary cycle (a burst of idle cycles yields a
// flat step, not a gap). Call whenever Due.
func (s *Sampler) Tick(now uint64) {
	if s == nil {
		return
	}
	for now >= s.next {
		at := s.next
		s.next += s.interval
		s.record(at)
	}
}

// SampleAt takes one final off-boundary sample (the end-of-run state) if
// the cycle is past the last recorded sample. Harnesses call it once after
// the workload finishes so the series always covers the whole run.
func (s *Sampler) SampleAt(cycle uint64) {
	if s == nil {
		return
	}
	if s.count > 0 {
		lastIdx := s.head - 1
		if lastIdx < 0 {
			lastIdx += s.capacity
		}
		if cycle <= s.cycles[lastIdx] {
			return
		}
	}
	if cycle >= s.next {
		s.next = cycle + 1 // boundaries already covered by this sample
	}
	s.record(cycle)
}

// record appends one sample row at the given cycle.
func (s *Sampler) record(cycle uint64) {
	if !s.frozen {
		s.frozen = true
		s.cycles = make([]uint64, s.capacity)
		s.data = make([]float64, s.capacity*len(s.names))
	}
	row := s.data[s.head*len(s.names) : (s.head+1)*len(s.names)]
	for i, p := range s.probes {
		row[i] = p(cycle)
	}
	s.cycles[s.head] = cycle
	s.head++
	if s.head == s.capacity {
		s.head = 0
	}
	if s.count < s.capacity {
		s.count++
	}
	s.total++
}

// Overwritten reports how many samples the ring has discarded.
func (s *Sampler) Overwritten() uint64 {
	if s == nil {
		return 0
	}
	return s.total - uint64(s.count)
}

// Sample is one row of a time-series dump.
type Sample struct {
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// TimeSeries is the exported form of a sampler's ring, oldest sample
// first. Series names are sorted; Values in each sample are parallel to
// Series. Overwritten says how many older samples the ring discarded.
type TimeSeries struct {
	IntervalCycles uint64   `json:"interval_cycles"`
	Series         []string `json:"series"`
	Overwritten    uint64   `json:"overwritten"`
	Samples        []Sample `json:"samples"`
}

// Export copies the ring into a TimeSeries, oldest first.
func (s *Sampler) Export() TimeSeries {
	ts := TimeSeries{Series: []string{}, Samples: []Sample{}}
	if s == nil {
		return ts
	}
	ts.IntervalCycles = s.interval
	ts.Series = append(ts.Series, s.names...)
	ts.Overwritten = s.total - uint64(s.count)
	start := s.head - s.count
	if start < 0 {
		start += s.capacity
	}
	for i := 0; i < s.count; i++ {
		idx := (start + i) % s.capacity
		row := make([]float64, len(s.names))
		copy(row, s.data[idx*len(s.names):(idx+1)*len(s.names)])
		ts.Samples = append(ts.Samples, Sample{Cycle: s.cycles[idx], Values: row})
	}
	return ts
}

// WriteJSON dumps the ring as indented JSON with sorted series columns.
// Identical runs produce byte-identical output.
func (s *Sampler) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s.Export(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV dumps the ring as a CSV table: a "cycle,<series>..." header,
// then one row per sample. Floats render in Go 'g' shortest form, so the
// output is byte-deterministic for identical runs.
func (s *Sampler) WriteCSV(w io.Writer) error {
	ts := s.Export()
	var buf []byte
	buf = append(buf, "cycle"...)
	for _, n := range ts.Series {
		buf = append(buf, ',')
		buf = append(buf, n...)
	}
	buf = append(buf, '\n')
	for _, smp := range ts.Samples {
		buf = strconv.AppendUint(buf, smp.Cycle, 10)
		for _, v := range smp.Values {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// EmitTrace appends the ring's samples to a trace recorder as Perfetto
// counter-track events ("C" phase, one track per series), merging the
// metric trajectories into the same timeline as the span events. Samples
// are emitted oldest-first, so each track's timestamps are monotone — the
// shape secmemobs -validate checks. No-op on a nil recorder or sampler.
func (s *Sampler) EmitTrace(rec *Recorder) {
	if s == nil || rec == nil {
		return
	}
	ts := s.Export()
	for _, smp := range ts.Samples {
		for i, name := range ts.Series {
			rec.CounterValue(name, smp.Cycle, smp.Values[i])
		}
	}
}

// String summarizes the sampler state for logs.
func (s *Sampler) String() string {
	if s == nil {
		return "Sampler(nil)"
	}
	return fmt.Sprintf("Sampler(every %d cycles, %d series, %d/%d samples, %d overwritten)",
		s.interval, len(s.names), s.count, s.capacity, s.total-uint64(s.count))
}
