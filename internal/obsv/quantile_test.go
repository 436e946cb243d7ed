package obsv

import (
	"math"
	"testing"
)

func snapOf(values ...uint64) HistSnapshot {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range values {
		h.Observe(v)
	}
	return r.Snapshot().Histograms["h"]
}

func TestHistSnapshotMeanEmptyIsZeroNotNaN(t *testing.T) {
	var h HistSnapshot
	if got := h.Mean(); got != 0 || math.IsNaN(got) {
		t.Errorf("empty Mean() = %v, want 0", got)
	}
	r := NewRegistry()
	r.Histogram("h")
	if got := r.Snapshot().Histograms["h"].Mean(); got != 0 || math.IsNaN(got) {
		t.Errorf("registered, empty histogram Mean() = %v, want 0", got)
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	h := snapOf(10, 20, 30, 1000)
	if got := h.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %g, want Min 10", got)
	}
	if got := h.Quantile(-1); got != 10 {
		t.Errorf("Quantile(-1) = %g, want Min 10", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %g, want Max 1000", got)
	}
	if got := h.Quantile(2); got != 1000 {
		t.Errorf("Quantile(2) = %g, want Max 1000", got)
	}
}

func TestQuantileWithinBucketError(t *testing.T) {
	// 100 observations of the same value: every quantile must return it
	// exactly (the interpolated value clamps to [Min, Max]).
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = 37
	}
	h := snapOf(vals...)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 37 {
			t.Errorf("constant hist Quantile(%g) = %g, want 37", q, got)
		}
	}

	// Uniform-ish spread: the estimate must sit within a factor of two of
	// the true quantile (one power-of-two bucket width).
	vals = vals[:0]
	for v := uint64(1); v <= 1024; v++ {
		vals = append(vals, v)
	}
	h = snapOf(vals...)
	for _, tc := range []struct{ q, truth float64 }{
		{0.50, 512}, {0.95, 973}, {0.99, 1014},
	} {
		got := h.Quantile(tc.q)
		if got < tc.truth/2 || got > tc.truth*2 {
			t.Errorf("Quantile(%g) = %g, want within [%g, %g]", tc.q, got, tc.truth/2, tc.truth*2)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := snapOf(0, 0, 1, 3, 9, 27, 81, 243, 729, 100000)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%g) = %g < previous %g: not monotone", q, got, prev)
		}
		prev = got
	}
}

func TestSnapshotCarriesPercentiles(t *testing.T) {
	h := snapOf(1, 2, 4, 8, 16, 32, 64, 128)
	if h.P50 != h.Quantile(0.50) || h.P95 != h.Quantile(0.95) || h.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot percentiles (%g, %g, %g) disagree with Quantile", h.P50, h.P95, h.P99)
	}
	if h.P50 > h.P95 || h.P95 > h.P99 {
		t.Errorf("percentiles not monotone: %g, %g, %g", h.P50, h.P95, h.P99)
	}
	if h.P50 < float64(h.Min) || h.P99 > float64(h.Max) {
		t.Errorf("percentiles escape [Min, Max]: %g, %g vs [%d, %d]", h.P50, h.P99, h.Min, h.Max)
	}
}

func TestBucketBoundRoundTrip(t *testing.T) {
	// Negative and overflowing indices clamp instead of misbehaving.
	if got := BucketBound(-1); got != 1 {
		t.Errorf("BucketBound(-1) = %d, want 1 (clamped to bucket 0)", got)
	}
	if got := BucketBound(HistBuckets - 1); got != 0 {
		t.Errorf("BucketBound(last) = %d, want 0 (unbounded)", got)
	}
	if got := BucketBound(HistBuckets + 10); got != 0 {
		t.Errorf("BucketBound(overflow) = %d, want 0 (clamped to tail)", got)
	}
	// Round-trip across every bounded bucket, including the 2^31 edge where
	// the bounded range meets the unbounded tail.
	for i := 0; i < HistBuckets-1; i++ {
		b := BucketBound(i)
		if got := BucketIndex(b); got != i+1 {
			t.Errorf("BucketIndex(BucketBound(%d)=%d) = %d, want %d", i, b, got, i+1)
		}
		if got := BucketIndex(b - 1); got > i {
			t.Errorf("BucketIndex(BucketBound(%d)-1) = %d, want <= %d", i, got, i)
		}
	}
	// uint64 extremes land in the tail bucket.
	if got := BucketIndex(math.MaxUint64); got != HistBuckets-1 {
		t.Errorf("BucketIndex(MaxUint64) = %d, want %d", got, HistBuckets-1)
	}
	if got := BucketIndex(0); got != 0 {
		t.Errorf("BucketIndex(0) = %d, want 0", got)
	}
}

func TestRegistryNameLists(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.c")
	r.Counter("a.c")
	r.Gauge("z.g")
	r.Gauge("a.g")
	r.Histogram("z.h")
	r.Histogram("a.h")
	// The snapshot lists each name under its own kind only.
	s := r.Snapshot()
	check := func(kind string, names []string, has func(string) bool) {
		t.Helper()
		for _, n := range names {
			if !has(n) {
				t.Errorf("%s: %s missing", kind, n)
			}
		}
	}
	if len(s.Counters) != 2 || len(s.Gauges) != 2 || len(s.Histograms) != 2 {
		t.Fatalf("snapshot sizes %d/%d/%d, want 2/2/2", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	check("counters", []string{"a.c", "z.c"}, func(n string) bool { _, ok := s.Counters[n]; return ok })
	check("gauges", []string{"a.g", "z.g"}, func(n string) bool { _, ok := s.Gauges[n]; return ok })
	check("histograms", []string{"a.h", "z.h"}, func(n string) bool { _, ok := s.Histograms[n]; return ok })
}
