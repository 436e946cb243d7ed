package obsv

import "sort"

// ShardedRegistry gives each worker goroutine its own private Registry and
// merges them deterministically afterwards. It exists because a Registry
// is deliberately unsynchronized (the hot path is one predicted branch and
// one add, and a shared atomic would put a contended cache line in every
// subsystem): when a campaign runs N machines on N goroutines
// (harness.Runner.CampaignObserved), each records into its own shard with zero
// cross-goroutine traffic, and the coordinator merges once at the end.
//
// The sharing discipline is the partitioned-index idiom the sharedstate
// analyzer blesses: shard i is touched only by worker i while workers run,
// and Merge is called only after the workers are joined. Nothing here
// locks, because nothing here is ever accessed concurrently.
//
// The nil ShardedRegistry hands out nil shards, which hand out nil
// handles: uninstrumented parallel runs pay the usual single branch.
type ShardedRegistry struct {
	shards []*Registry
}

// NewSharded builds n empty per-worker registries. n must be positive.
func NewSharded(n int) *ShardedRegistry {
	if n <= 0 {
		panic("obsv: sharded registry needs at least one shard")
	}
	s := &ShardedRegistry{shards: make([]*Registry, n)}
	for i := range s.shards {
		s.shards[i] = NewRegistry()
	}
	return s
}

// Shards reports the shard count (zero for nil).
func (s *ShardedRegistry) Shards() int {
	if s == nil {
		return 0
	}
	return len(s.shards)
}

// Shard returns worker i's registry. Returns nil on a nil receiver, so an
// uninstrumented campaign can index unconditionally.
func (s *ShardedRegistry) Shard(i int) *Registry {
	if s == nil {
		return nil
	}
	return s.shards[i]
}

// Merge folds every shard into one new Registry, visiting metric names in
// sorted order so the result is independent of both shard order and map
// iteration order:
//
//   - counters sum across shards;
//   - histograms merge bucket-wise (counts and sums add; min/max combine
//     over shards that observed anything);
//   - gauges take the maximum across shards that set them — the
//     registered gauges are utilizations, hit rates, and high-water marks,
//     for which "worst/ busiest shard" is the meaningful aggregate and,
//     unlike last-writer-wins, is deterministic.
//
// Call after the worker goroutines are joined.
func (s *ShardedRegistry) Merge() *Registry {
	out := NewRegistry()
	if s == nil {
		return out
	}
	for _, name := range s.counterNames() {
		c := out.Counter(name)
		for _, sh := range s.shards {
			if v, ok := sh.counters[name]; ok {
				c.Add(v.v)
			}
		}
	}
	for _, name := range s.gaugeNames() {
		g := out.Gauge(name)
		first := true
		for _, sh := range s.shards {
			if v, ok := sh.gauges[name]; ok {
				if first || v.v > g.v {
					g.Set(v.v)
				}
				first = false
			}
		}
	}
	for _, name := range s.histNames() {
		h := out.Histogram(name)
		for _, sh := range s.shards {
			v, ok := sh.hists[name]
			if !ok || v.count == 0 {
				continue
			}
			for i, n := range v.buckets {
				h.buckets[i] += n
			}
			if h.count == 0 || v.min < h.min {
				h.min = v.min
			}
			if v.max > h.max {
				h.max = v.max
			}
			h.count += v.count
			h.sum += v.sum
		}
	}
	return out
}

// counterNames is the sorted union of counter names across shards.
func (s *ShardedRegistry) counterNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, sh := range s.shards {
		for _, n := range sh.CounterNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return sortedUnion(names)
}

func (s *ShardedRegistry) gaugeNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, sh := range s.shards {
		for _, n := range sh.GaugeNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return sortedUnion(names)
}

func (s *ShardedRegistry) histNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, sh := range s.shards {
		for _, n := range sh.HistogramNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return sortedUnion(names)
}

// sortedUnion sorts a de-duplicated name union in place and returns it.
func sortedUnion(names []string) []string {
	sort.Strings(names)
	return names
}
