// Command secmemobs renders and validates the observability artifacts that
// secmemsim emits: the metrics registry JSON (-metrics) and the Chrome
// trace-event timeline (-trace).
//
// By default it prints plain-text tables: utilization/derived gauges,
// counters, latency histograms with interpolated percentiles, and per-track
// trace summaries. With -validate it instead checks the artifacts for the
// shape an instrumented protected run must have (nonzero ctrcache.*,
// merkle.*, and aes.* series; a loadable trace with closed transaction
// ranges, overlapped Merkle-level work, and no dropped events) and exits
// non-zero on violation — CI's trace-smoke target runs this. A metrics file
// is deterministic, so a regression gate compares it byte for byte with
// diff (make metrics-compare).
//
//	secmemsim -bench swim -metrics m.json -trace t.json
//	secmemobs -metrics m.json -trace t.json
//	secmemobs -metrics m.json -trace t.json -validate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"secmem/internal/obsv"
	"secmem/internal/stats"
)

func main() {
	var (
		metrics  = flag.String("metrics", "", "metrics registry JSON written by secmemsim -metrics")
		trace    = flag.String("trace", "", "Chrome trace-event JSON written by secmemsim -trace")
		validate = flag.Bool("validate", false, "validate artifact shape instead of rendering tables")
	)
	flag.Parse()

	if *metrics == "" {
		fatalf("-metrics is required")
	}

	snap := loadSnapshot(*metrics)
	var events []traceEvent
	var dropped uint64
	if *trace != "" {
		events, dropped = loadTrace(*trace)
	}

	if *validate {
		errs := validateSnapshot(snap)
		if *trace != "" {
			errs = append(errs, validateTrace(events, dropped)...)
		}
		if len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "secmemobs: FAIL: %s\n", e)
			}
			os.Exit(1)
		}
		fmt.Printf("secmemobs: ok (%d counters, %d gauges, %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
		if *trace != "" {
			fmt.Printf(", %d trace events", len(events))
		}
		fmt.Println(")")
		return
	}

	render(snap, events)
}

// loadSnapshot parses a registry snapshot JSON file.
func loadSnapshot(path string) obsv.Snapshot {
	b, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var snap obsv.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
	return snap
}

// traceEvent is the subset of the Chrome trace-event wire format the
// validator and renderer need. Cat carries the track name.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   uint64  `json:"ts"`
	Dur  *uint64 `json:"dur"`
	ID   string  `json:"id"`
}

// loadTrace parses the trace file, returning its events and the recorder's
// dropped-event count from otherData.
func loadTrace(path string) ([]traceEvent, uint64) {
	b, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		OtherData   struct {
			DroppedEvents uint64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
	return tf.TraceEvents, tf.OtherData.DroppedEvents
}

// validateSnapshot checks that the protected-run metric series an
// instrumented simulation must produce are present and nonzero, and that
// the run's trace recorder (if any) reported no dropped events.
func validateSnapshot(snap obsv.Snapshot) []string {
	var errs []string
	for _, prefix := range []string{"ctrcache.", "merkle.", "aes."} {
		nonzero := false
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) && v > 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			errs = append(errs, fmt.Sprintf("no nonzero %s* counter in metrics", prefix))
		}
	}
	if d, ok := snap.Gauges["trace.dropped"]; ok && d > 0 {
		errs = append(errs, fmt.Sprintf("trace recorder dropped %.0f events (metrics gauge trace.dropped); raise -tracelimit", d))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		if math.IsNaN(h.Mean()) || math.IsNaN(h.P50) || math.IsNaN(h.P95) || math.IsNaN(h.P99) {
			errs = append(errs, fmt.Sprintf("histogram %s has NaN summary statistics", name))
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			errs = append(errs, fmt.Sprintf("histogram %s percentiles not monotone: p50=%g p95=%g p99=%g",
				name, h.P50, h.P95, h.P99))
		}
	}
	return errs
}

// validateTrace checks that the timeline is non-trivial, that every async
// range opened by a 'b' event is closed by a matching 'e' event (same
// cat/name/id, end ts >= begin ts — otherwise Perfetto renders the range at
// a bogus time or never closes it), and that it shows at least one pair of
// overlapping spans on different Merkle levels — the parallel level
// authentication the trace exists to make visible. A nonzero dropped count
// is a failure: a truncated trace must not validate as complete.
func validateTrace(events []traceEvent, dropped uint64) []string {
	var errs []string
	if dropped > 0 {
		errs = append(errs, fmt.Sprintf("trace dropped %d events at the recorder cap; raise -tracelimit", dropped))
	}
	var complete, txns int
	type span struct {
		track  string
		lo, hi uint64
	}
	var merkle []span
	type rangeKey struct{ cat, name, id string }
	open := map[rangeKey]uint64{}
	for _, e := range events {
		switch e.Ph {
		case "X":
			complete++
			if strings.HasPrefix(e.Cat, "merkle.") && e.Dur != nil {
				merkle = append(merkle, span{e.Cat, e.Ts, e.Ts + *e.Dur})
			}
		case "b":
			txns++
			k := rangeKey{e.Cat, e.Name, e.ID}
			if e.ID == "" {
				errs = append(errs, fmt.Sprintf("'b' event %s/%s at ts=%d has no id", e.Cat, e.Name, e.Ts))
			} else if _, dup := open[k]; dup {
				errs = append(errs, fmt.Sprintf("duplicate open 'b' event %s/%s id=%s", e.Cat, e.Name, e.ID))
			} else {
				open[k] = e.Ts
			}
		case "e":
			k := rangeKey{e.Cat, e.Name, e.ID}
			begin, ok := open[k]
			if !ok {
				errs = append(errs, fmt.Sprintf("'e' event %s/%s id=%s has no matching 'b'", e.Cat, e.Name, e.ID))
				continue
			}
			if e.Ts < begin {
				errs = append(errs, fmt.Sprintf("async range %s/%s id=%s ends at ts=%d before it begins at ts=%d",
					e.Cat, e.Name, e.ID, e.Ts, begin))
			}
			delete(open, k)
		}
	}
	var unclosed []string
	for k := range open {
		unclosed = append(unclosed, fmt.Sprintf("'b' event %s/%s id=%s never closed by an 'e'", k.cat, k.name, k.id))
	}
	sort.Strings(unclosed)
	errs = append(errs, unclosed...)
	if complete == 0 {
		errs = append(errs, "trace has no complete ('X') events")
	}
	if txns == 0 {
		errs = append(errs, "trace has no transaction ('b') events")
	}
	overlap := false
	for i := 0; i < len(merkle) && !overlap; i++ {
		for j := i + 1; j < len(merkle); j++ {
			a, b := merkle[i], merkle[j]
			if a.track != b.track && a.lo < b.hi && b.lo < a.hi {
				overlap = true
				break
			}
		}
	}
	if !overlap {
		errs = append(errs, "no overlapping spans on distinct merkle levels (expected with parallel authentication)")
	}
	return errs
}

// render prints the snapshot (and trace summary) as plain-text tables.
func render(snap obsv.Snapshot, events []traceEvent) {
	if len(snap.Gauges) > 0 {
		tbl := stats.Table{
			Title: "Utilization and derived gauges",
			Cols:  []string{"gauge", "value"},
		}
		for _, name := range sortedKeys(snap.Gauges) {
			tbl.AddRow(name, fmt.Sprintf("%.4f", snap.Gauges[name]))
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}
	if len(snap.Counters) > 0 {
		tbl := stats.Table{
			Title: "Counters",
			Cols:  []string{"counter", "count"},
		}
		for _, name := range sortedKeys(snap.Counters) {
			tbl.AddRow(name, fmt.Sprintf("%d", snap.Counters[name]))
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}
	if len(snap.Histograms) > 0 {
		tbl := stats.Table{
			Title: "Latency histograms (cycles)",
			Cols:  []string{"histogram", "count", "mean", "p50", "p95", "p99", "min", "max"},
		}
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			// Percentiles are recomputed from the buckets rather than read
			// from the p50/p95/p99 fields, so tables render correctly for
			// metrics files written before those fields existed.
			tbl.AddRow(name,
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.1f", h.Mean()),
				fmt.Sprintf("%.1f", h.Quantile(0.50)),
				fmt.Sprintf("%.1f", h.Quantile(0.95)),
				fmt.Sprintf("%.1f", h.Quantile(0.99)),
				fmt.Sprintf("%d", h.Min),
				fmt.Sprintf("%d", h.Max))
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}
	if len(events) > 0 {
		perTrack := map[string]int{}
		for _, e := range events {
			if e.Ph != "M" {
				perTrack[e.Cat]++
			}
		}
		tbl := stats.Table{
			Title: "Trace events per track",
			Cols:  []string{"track", "events"},
		}
		for _, name := range sortedKeys(perTrack) {
			tbl.AddRow(name, fmt.Sprintf("%d", perTrack[name]))
		}
		fmt.Print(tbl.String())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "secmemobs: "+format+"\n", args...)
	os.Exit(2)
}
