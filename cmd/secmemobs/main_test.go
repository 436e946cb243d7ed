package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmem/internal/config"
	"secmem/internal/harness"
	"secmem/internal/obsv"
)

func span(track string, lo, hi uint64) traceEvent {
	dur := hi - lo
	return traceEvent{Name: "fetch", Cat: track, Ph: "X", Ts: lo, Dur: &dur}
}

// checkErrs requires errs to be exactly one error per want entry, in order,
// each containing its substring.
func checkErrs(t *testing.T, rule string, errs, want []string) {
	t.Helper()
	ok := len(errs) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.Contains(errs[i], want[i])
	}
	if !ok {
		t.Errorf("%s: errors %q, want one each containing %q", rule, errs, want)
	}
}

// TestValidateTraceRules feeds validateTrace hand-written traces that each
// break one rule and requires exactly that rule's error.
func TestValidateTraceRules(t *testing.T) {
	begin := traceEvent{Name: "read", Cat: "txn", Ph: "b", Ts: 10, ID: "0x1"}
	end := traceEvent{Name: "read", Cat: "txn", Ph: "e", Ts: 60, ID: "0x1"}
	lvl0 := span("merkle.level0", 10, 40)
	lvl1 := span("merkle.level1", 30, 50)
	valid := []traceEvent{begin, lvl0, lvl1, end}
	with := func(events ...traceEvent) []traceEvent { return append(valid[:len(valid):len(valid)], events...) }

	noID := begin
	noID.ID = ""
	early := end
	early.Ts = 5
	cases := []struct {
		rule    string
		dropped uint64
		events  []traceEvent
		want    []string
	}{
		{"valid", 0, valid, nil},
		{"dropped > 0", 1, valid, []string{"trace dropped 1 events"}},
		// The overlap rule reads 'X' spans only, so a trace without any
		// breaks it too.
		{"no X", 0, []traceEvent{begin, end},
			[]string{"no complete ('X') events", "no overlapping spans on distinct merkle levels"}},
		{"no b", 0, []traceEvent{lvl0, lvl1}, []string{"no transaction ('b') events"}},
		{"b without id", 0, with(noID), []string{"'b' event txn/read at ts=10 has no id"}},
		{"duplicate b", 0, []traceEvent{begin, begin, lvl0, lvl1, end}, []string{"duplicate open 'b' event txn/read id=0x1"}},
		{"e without b", 0, with(end), []string{"'e' event txn/read id=0x1 has no matching 'b'"}},
		{"e before its b", 0, []traceEvent{begin, lvl0, lvl1, early}, []string{"ends at ts=5 before it begins at ts=10"}},
		{"unclosed b", 0, []traceEvent{begin, lvl0, lvl1}, []string{"'b' event txn/read id=0x1 never closed"}},
		// Spans overlap only on one level; across levels they only touch.
		{"no Merkle overlap", 0, []traceEvent{begin, lvl0, span("merkle.level0", 20, 30), span("merkle.level1", 40, 50), end},
			[]string{"no overlapping spans on distinct merkle levels"}},
	}
	for _, c := range cases {
		checkErrs(t, c.rule, validateTrace(c.events, c.dropped), c.want)
	}
}

// TestValidateSnapshotRules does the same for validateSnapshot.
func TestValidateSnapshotRules(t *testing.T) {
	valid := func() obsv.Snapshot {
		return obsv.Snapshot{
			Counters: map[string]uint64{"ctrcache.hits": 1, "merkle.fetches": 1, "aes.issues": 1},
			Gauges:   map[string]float64{"trace.dropped": 0},
			Histograms: map[string]obsv.HistSnapshot{
				"bus.wait": {Count: 2, Sum: 10, Min: 1, Max: 9, P50: 1, P95: 9, P99: 9},
			},
		}
	}
	cases := []struct {
		rule string
		edit func(s *obsv.Snapshot)
		want []string
	}{
		{"valid", func(*obsv.Snapshot) {}, nil},
		{"zero series", func(s *obsv.Snapshot) { s.Counters["merkle.fetches"] = 0 }, []string{"no nonzero merkle.* counter"}},
		{"dropped > 0", func(s *obsv.Snapshot) { s.Gauges["trace.dropped"] = 3 }, []string{"trace recorder dropped 3 events"}},
		{"NaN percentile", func(s *obsv.Snapshot) {
			h := s.Histograms["bus.wait"]
			h.P95 = math.NaN()
			s.Histograms["bus.wait"] = h
		}, []string{"histogram bus.wait has NaN summary statistics"}},
		{"percentiles out of order", func(s *obsv.Snapshot) {
			h := s.Histograms["bus.wait"]
			h.P50 = 10
			s.Histograms["bus.wait"] = h
		}, []string{"histogram bus.wait percentiles not monotone"}},
	}
	for _, c := range cases {
		snap := valid()
		c.edit(&snap)
		checkErrs(t, c.rule, validateSnapshot(snap), c.want)
	}
}

// TestRealRunValidates writes the registry and trace of an instrumented
// run on the default machine and requires both to load and validate.
func TestRealRunValidates(t *testing.T) {
	reg, rec := obsv.NewRegistry(), obsv.NewRecorder(0)
	r := harness.New(harness.Options{Instructions: 200_000, Seed: 1})
	r.RunObserved("swim", config.Default(), harness.Obs{Reg: reg, Rec: rec})

	write := func(name string, fn func(io.Writer) error) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mPath, tPath := write("m.json", reg.WriteJSON), write("t.json", rec.WriteJSON)
	checkErrs(t, "snapshot", validateSnapshot(loadSnapshot(mPath)), nil)
	events, dropped := loadTrace(tPath)
	checkErrs(t, "trace", validateTrace(events, dropped), nil)
}
