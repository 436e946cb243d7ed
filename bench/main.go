// Command bench is the simulator's benchmark. It runs four workloads,
// reports end-to-end host-speed metrics from untraced reps and a per-layer
// split of host time from sampled, traced reps, and checks every rep's
// simulated statistics against pinned fingerprints. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh --workload chase --seed 1 --seconds 20 --trace 0
//
// From this directory:
//
//	go run . -json a.json -tracefile spans.json   # every workload
//	go run . -compare a.json b.json        # or a1.json,a2.json b1.json,b2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runSeconds is how long one workload run measures by default; it matches
// run_seconds in BENCHMARK.json.
const runSeconds = 20

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "workload seed; the only input the simulator receives")
	seconds := fs.Float64("seconds", runSeconds, "time spent on timed reps per workload")
	traced := fs.Int("trace", 1, "1: also run the traced reps and, with -workload, end the output with the per-layer metrics; 0: end-to-end only")
	jsonOut := fs.String("json", "", "write the full report to `file` (every-workload mode: the artifact -compare reads)")
	traceFile := fs.String("tracefile", "", "write the coarse spans to `file` as Chrome trace-event JSON")
	cmp := fs.Bool("compare", false, "compare two sides, each a comma-separated list of artifacts: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two sides of artifact files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case *seconds < 0 || math.IsNaN(*seconds):
		fmt.Fprintln(stderr, "bench: -seconds must be non-negative")
		return 2
	case *name == "":
		return runAll(*seed, *seconds, *jsonOut, *traceFile, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rep, err := run(w, defaultOpts(*seed, *seconds, *traced == 1))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeOutputs(*jsonOut, *traceFile, rep, []report{*rep}); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return printResult(stdout, rep)
}

// runAll runs every workload in its own child process, so each one's peak
// RSS is its own, and gathers their reports into one artifact.
func runAll(seed int64, seconds float64, jsonOut, traceFile string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "secmem-bench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	art := artifact{Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		path := filepath.Join(dir, w.name+".json")
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "1", "-json", path)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			return 1
		}
		rep, err := readJSON[report](path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		art.Workloads = append(art.Workloads, rep)
	}
	art.Host = art.Workloads[0].Host
	if err := writeOutputs(jsonOut, traceFile, art, art.Workloads); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nsummary (seed %d, %gs per workload, nproc=%d gomaxprocs=%d %s):\n",
		seed, seconds, art.Host.Nproc, art.Host.GOMAXPROCS, art.Host.GoVersion)
	code := 0
	for _, rep := range art.Workloads {
		fmt.Fprintf(stdout, "  %-10s", rep.Workload)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  %s=%.4g %s", d.Name, rep.EndToEnd[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(stdout, "  failed=%d/%d\n", rep.Failed, rep.Attempted)
		if rep.Failed > 0 {
			code = 1
		}
	}
	return code
}

// artifact is what every-workload mode writes and -compare reads.
type artifact struct {
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Host      hostInfo `json:"host"`
	Workloads []report `json:"workloads"`
}

func readJSON[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func writeOutputs(jsonOut, traceFile string, full any, reps []report) error {
	if jsonOut != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if traceFile != "" {
		return writeChromeTrace(traceFile, reps)
	}
	return nil
}

// writeChromeTrace writes the spans as complete ("X") events, one process
// per workload, loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, reps []report) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var evs []event
	for pid, rep := range reps {
		evs = append(evs, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": rep.Workload}})
		spans := append([]span(nil), rep.Spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Dur > spans[j].Dur
		})
		for _, s := range spans {
			evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: pid, Tid: 1})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printReport(w io.Writer, rep *report) {
	per := "rep"
	if rep.Workload == "campaign" {
		per = "run"
	}
	fmt.Fprintf(w, "workload %s: seed=%d budget=%d instr/%s warmup_reps=%d timed_reps=%d traced=%v\n",
		rep.Workload, rep.Seed, rep.Budget, per, rep.Warmup, rep.Reps, rep.Traced)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s clock_bias_ns=%.0f\n",
		rep.Host.Nproc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.ClockBiasNs)
	switch {
	case rep.Reference == "none (determinism-only)":
		fmt.Fprintf(w, "reference: %s\n", rep.Reference)
	case rep.Reference == rep.Fingerprint:
		fmt.Fprintf(w, "reference: matches %.16s\n", rep.Reference)
	default:
		fmt.Fprintf(w, "reference: MISMATCH: pinned %.16s, got %.16s\n", rep.Reference, rep.Fingerprint)
	}
	fmt.Fprintf(w, "reps: attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	fmt.Fprintln(w, "end-to-end (median over untraced samples; a tail percentile only where 10 samples lie beyond it):")
	for _, d := range endToEnd {
		v := rep.EndToEnd[d.Name]
		tail := "no tail percentile"
		if v.TailPct > 0 {
			tail = fmt.Sprintf("p%d %.6g", v.TailPct, v.Tail)
		}
		fmt.Fprintf(w, "  %-18s %12.6g %-9s min %-10.6g max %-10.6g n %-4d %s\n", d.Name, v.Value, d.Unit, v.Min, v.Max, v.N, tail)
	}
	if rep.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "per-layer (%d traced reps, each call of every %d timed, less its in-place clock bias):\n", tracedReps, sampleEvery)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %12.6g %s\n", d.Name, rep.PerLayer[d.Name].Value, d.Unit)
	}
}

// printResult ends the output with the one-line result: the end-to-end
// metrics, or with the traced rep the per-layer ones.
func printResult(w io.Writer, rep *report) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	src, defs := rep.EndToEnd, endToEnd
	if rep.Traced {
		src, defs = rep.PerLayer, perLayer
	}
	for _, d := range defs {
		v := src[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}
