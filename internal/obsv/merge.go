package obsv

// Merge folds registries into one new Registry. It is how a parallel
// campaign reports one set of metrics: a Registry is deliberately
// unsynchronized (the hot path is one predicted branch and one add), so
// each run records into its own, and the caller merges them once the
// runs have returned.
//
//   - counters sum;
//   - histograms merge bucket-wise (counts and sums add; min/max combine
//     over registries that observed anything);
//   - gauges take the maximum over registries that set them — the
//     registered gauges are utilizations, hit rates, and high-water marks,
//     for which "busiest run" is the meaningful aggregate.
//
// Every step is order-independent, so the result does not depend on the
// order of regs or of map iteration. A metric registered in any input is
// registered in the result, even if it never moved. Nil entries are
// skipped.
func Merge(regs []*Registry) *Registry {
	out := NewRegistry()
	for _, r := range regs {
		if r == nil {
			continue
		}
		for name, c := range r.counters {
			out.Counter(name).Add(c.v)
		}
		for name, g := range r.gauges {
			if m, ok := out.gauges[name]; !ok || g.v > m.v {
				out.Gauge(name).Set(g.v)
			}
		}
		for name, h := range r.hists {
			m := out.Histogram(name)
			if h.count == 0 {
				continue
			}
			for i, n := range h.buckets {
				m.buckets[i] += n
			}
			if m.count == 0 || h.min < m.min {
				m.min = h.min
			}
			if h.max > m.max {
				m.max = h.max
			}
			m.count += h.count
			m.sum += h.sum
		}
	}
	return out
}
