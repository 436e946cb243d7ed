// Package obsv is the observability layer of the simulator: a metrics
// registry (counters, gauges, cycle-bucketed latency histograms with
// hierarchical dotted names like "ctrcache.miss" or "merkle.level2.fetch")
// and a cycle-timestamped event recorder that exports Chrome trace-event
// JSON loadable in chrome://tracing and Perfetto.
//
// The design constraint is that instrumentation must be free to leave in:
// every handle type no-ops on a nil receiver, so an uninstrumented subsystem
// holds nil pointers and each histogram or trace call costs exactly one
// predicted branch. Histograms are registered once, when a machine is
// instrumented; the hot path only touches the returned pointers and never
// allocates. Counter handles are not touched on the hot path at all: the
// simulator counts in its own statistics and, at the end of a run, adds
// each counter from the statistic it reports.
//
// The registry snapshot is deterministic: the same simulated run produces
// byte-identical JSON, which the trace-smoke CI target relies on.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Counter is a monotonically increasing event count. The nil Counter
// discards updates.
type Counter struct {
	v uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Gauge is a last-value-wins measurement (utilizations, rates, high-water
// marks), typically set once at end of run. The nil Gauge discards updates.
type Gauge struct {
	v float64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// HistBuckets is the number of histogram buckets. Bucket 0 counts zero
// observations; bucket i (i >= 1) counts values in [2^(i-1), 2^i); the last
// bucket absorbs everything at or above 2^(HistBuckets-2). 33 buckets cover
// [0, 2^31) cycle latencies exactly, far beyond any realistic queue delay.
const HistBuckets = 33

// Histogram is a latency histogram over power-of-two cycle buckets. The
// fixed bucket array keeps Observe allocation-free. The nil Histogram
// discards observations.
type Histogram struct {
	buckets  [HistBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// BucketIndex returns the bucket an observation lands in.
func BucketIndex(v uint64) int {
	i := bits.Len64(v) // 0 for v == 0; k for v in [2^(k-1), 2^k)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i, with the last
// bucket unbounded (reported as 0 in snapshots, meaning "+inf") and
// out-of-range indices clamped to the nearest bucket. BucketBound and
// BucketIndex round-trip across the whole uint64 range: for every bounded
// bucket i, BucketIndex(BucketBound(i)) == i+1 and
// BucketIndex(BucketBound(i)-1) <= i, including the 2^31 edge where the
// bounded range meets the unbounded tail bucket.
func BucketBound(i int) uint64 {
	if i < 0 {
		i = 0
	}
	if i >= HistBuckets-1 {
		return 0
	}
	if i == 0 {
		return 1
	}
	return 1 << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[BucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Registry holds named metrics. Names are hierarchical dotted paths
// ("subsystem.metric" or "subsystem.component.metric") of lowercase
// letters, digits, underscores, and dots; malformed names panic at
// registration time because they are code, not input. Each name belongs to
// exactly one metric kind.
//
// The nil Registry hands out nil handles, so a caller can instrument
// unconditionally and pay only the handles' nil checks. A Registry is not
// safe for concurrent use; the harness attaches one per run.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func checkName(name string) {
	if name == "" {
		panic("obsv: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '.':
		default:
			panic(fmt.Sprintf("obsv: metric name %q: byte %q not in [a-z0-9_.]", name, c))
		}
	}
	if name[0] == '.' || name[len(name)-1] == '.' {
		panic(fmt.Sprintf("obsv: metric name %q starts or ends with a dot", name))
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// SetGauge is shorthand for Gauge(name).Set(v), used by end-of-run exports.
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// BucketCount is one non-empty histogram bucket in a snapshot. Le is the
// bucket's exclusive upper bound in cycles (0 means unbounded).
type BucketCount struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistSnapshot is a histogram's exported state. P50/P95/P99 are quantiles
// interpolated from the power-of-two buckets (see Quantile for the error
// bound); they are derived from Buckets at snapshot time and carried in
// the JSON so downstream tables need no recomputation.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets"`
}

// Mean is the average observation, or 0 (never NaN) when the snapshot is
// empty.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile interpolates the q-th quantile (q in [0,1]) from the power-of-
// two buckets, assuming observations are uniformly distributed within each
// bucket. The result is exact at bucket boundaries and otherwise off by at
// most a factor of two (one bucket's width: the true value and the
// estimate share a [2^(i-1), 2^i) bucket); the interpolated value is
// clamped to the observed [Min, Max] so the tails never exceed reality.
// Returns 0 on an empty snapshot.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.Min)
	}
	if q >= 1 {
		return float64(h.Max)
	}
	rank := q * float64(h.Count)
	var cum float64
	for _, b := range h.Buckets {
		n := float64(b.N)
		if cum+n < rank {
			cum += n
			continue
		}
		// The quantile lands in this bucket: interpolate between its
		// bounds. Le == 0 marks the unbounded tail bucket, whose effective
		// upper bound is the observed Max.
		var lo, hi float64
		switch {
		case b.Le == 0:
			lo = float64(uint64(1) << uint(HistBuckets-2))
			hi = float64(h.Max)
		case b.Le == 1:
			lo, hi = 0, 1 // the zero bucket holds only the value 0
		default:
			lo, hi = float64(b.Le)/2, float64(b.Le)
		}
		v := lo
		if n > 0 {
			v = lo + (rank-cum)/n*(hi-lo)
		}
		if v < float64(h.Min) {
			v = float64(h.Min)
		}
		if v > float64(h.Max) {
			v = float64(h.Max)
		}
		return v
	}
	return float64(h.Max)
}

// Snapshot is the registry's full exported state. Maps serialize with
// sorted keys (encoding/json guarantees this), making the JSON byte-stable
// for identical runs.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the current metric values. A nil registry yields an
// empty (but non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, n := range h.buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{Le: BucketBound(i), N: n})
			}
		}
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. Identical runs
// produce byte-identical output.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
