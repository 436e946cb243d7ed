// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (Section 6) over the synthetic workload suite.
//
//	paperbench -all            # everything (default)
//	paperbench -fig 4          # one figure
//	paperbench -table 2        # Table 2
//	paperbench -scalars        # Section 6.1 scalar results
//	paperbench -quick          # reduced instruction count for a fast pass
//	paperbench -instr 20000000 # longer runs (closer to the paper's 1B)
//
// Stdout carries only the tables, which are deterministic; each line that
// reports host time goes to stderr. So a run's stdout can be compared byte
// for byte with results_full.txt or results_ablations.txt (make
// results-check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"secmem/internal/harness"
)

func main() {
	var (
		instr   = flag.Uint64("instr", 4_000_000, "instructions per run")
		quick   = flag.Bool("quick", false, "reduced campaign (1M instructions)")
		seed    = flag.Int64("seed", 1, "workload seed")
		fig     = flag.Int("fig", 0, "regenerate one figure (4,5,6,7,8,9,10)")
		table   = flag.Int("table", 0, "regenerate one table (2)")
		scalars = flag.Bool("scalars", false, "regenerate Section 6.1 scalars")
		ablate  = flag.Bool("ablate", false, "run the RSR/minor-width/page-size ablations")
		all     = flag.Bool("all", false, "regenerate everything")
		jsonOut = flag.String("json", "", "also write structured results as JSON to this file")
		svgDir  = flag.String("svg", "", "also render figures as SVG files into this directory")
		metrics = flag.String("metrics", "", "write per-benchmark metric deltas (Split+GCM vs baseline) as JSON to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the campaign to this file")
	)
	flag.Parse()
	if err := checkSelectors(*fig, *table, *instr); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			}
		}()
	}
	if *quick {
		*instr = 1_000_000
	}
	if *fig == 0 && *table == 0 && !*scalars && !*ablate && *metrics == "" {
		*all = true
	}
	r := harness.New(harness.Options{Instructions: *instr, Seed: *seed})
	structured := map[string]any{}
	svgs := map[string]string{}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}

	type job struct {
		name string
		run  func()
	}
	keep := func(name string, tbl fmt.Stringer, data any) {
		fmt.Println(tbl)
		structured[name] = data
	}
	jobs := []job{
		{"fig4", func() {
			tbl, d := r.Fig4()
			keep("fig4", tbl, d)
			svgs["fig4"] = harness.BarSVG("Figure 4: Memory encryption schemes", d,
				[]string{"Split", "Mono8b", "Mono16b", "Mono32b", "Mono64b", "Direct"}, harness.Fig4Benches)
		}},
		{"table2", func() { tbl, d := r.Table2(); keep("table2_overflow_seconds", tbl, d) }},
		{"fig5", func() {
			tbl, d := r.Fig5()
			keep("fig5", tbl, d)
			svgs["fig5"] = harness.Fig5SVG(d)
		}},
		{"fig6a", func() { tbl, d := r.Fig6a(); keep("fig6a", tbl, d) }},
		{"fig6b", func() {
			tbl, d := r.Fig6b(5)
			keep("fig6b", tbl, d)
			svgs["fig6b"] = harness.Fig6bSVG(d)
		}},
		{"fig7", func() {
			tbl, d := r.Fig7()
			keep("fig7", tbl, d)
			svgs["fig7"] = harness.BarSVG("Figure 7: Memory authentication schemes", d,
				[]string{"GCM", "SHA-1 (80)", "SHA-1 (160)", "SHA-1 (320)", "SHA-1 (640)"}, harness.Fig7Benches)
		}},
		{"fig8", func() {
			tbl, d := r.Fig8()
			keep("fig8", tbl, d)
			svgs["fig8"] = harness.Fig8SVG(d)
		}},
		{"fig9", func() {
			tbl, d := r.Fig9()
			keep("fig9", tbl, d)
			svgs["fig9"] = harness.BarSVG("Figure 9: Combined encryption + authentication", d,
				harness.CombinedNames(), harness.Fig9Benches)
		}},
		{"fig10", func() {
			tbl, d := r.Fig10()
			keep("fig10", tbl, d)
			svgs["fig10"] = harness.Fig10SVG(d)
		}},
		{"scalars", func() { tbl, d := r.Scalars(); keep("scalars", tbl, d) }},
		{"ablate-rsrs", func() { tbl, d := r.AblateRSRs(); keep("ablate-rsrs", tbl, d) }},
		{"ablate-minors", func() { tbl, d := r.AblateMinorBits(); keep("ablate-minors", tbl, d) }},
		{"ablate-pages", func() { tbl, d := r.AblatePageSize(); keep("ablate-pages", tbl, d) }},
		{"ablate-maccache", func() { tbl, d := r.AblateMacCache(); keep("ablate-maccache", tbl, d) }},
		{"ablate-charge", func() { tbl, d := r.AblateMonoCharge(); keep("ablate-charge", tbl, d) }},
	}
	want := func(name string) bool {
		if *all {
			// -all regenerates the paper's content; ablations are
			// explicit extensions (-ablate).
			switch name {
			case "ablate-rsrs", "ablate-minors", "ablate-pages", "ablate-maccache", "ablate-charge":
				return false // explicit extensions (-ablate), not paper content
			}
			return true
		}
		switch name {
		case "fig4", "fig5", "fig7", "fig8", "fig9", "fig10":
			return *fig != 0 && fmt.Sprintf("fig%d", *fig) == name
		case "fig6a", "fig6b":
			return *fig == 6
		case "table2":
			return *table == 2
		case "scalars":
			return *scalars
		case "ablate-rsrs", "ablate-minors", "ablate-pages", "ablate-maccache", "ablate-charge":
			return *ablate
		}
		return false
	}
	ran := 0
	for _, j := range jobs {
		if !want(j.name) {
			continue
		}
		t0 := time.Now()
		j.run()
		fmt.Fprintf(os.Stderr, "[%s regenerated in %.1fs]\n", j.name, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 && *metrics == "" {
		fmt.Fprintln(os.Stderr, "paperbench: nothing selected (use -all, -fig N, -table 2, or -scalars)")
		os.Exit(2)
	}
	// A malformed figure row is a run failure, not a panic mid-campaign.
	if err := r.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	if *metrics != "" {
		t0 := time.Now()
		deltas := r.MetricDeltas(harness.Combined("Split+GCM"))
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(deltas); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "per-benchmark metric deltas (Split+GCM vs baseline) written to %s in %.1fs\n",
			*metrics, time.Since(t0).Seconds())
	}
	if *svgDir != "" {
		names := make([]string, 0, len(svgs))
		for name := range svgs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := fmt.Sprintf("%s/%s.svg", *svgDir, name)
			if err := os.WriteFile(path, []byte(svgs[name]), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("%d SVG figures written to %s\n", len(svgs), *svgDir)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(structured); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("structured results written to %s\n", *jsonOut)
	}
}

// checkSelectors rejects a -fig or -table that names nothing paperbench
// regenerates, and an -instr of zero, before any run starts. A zero -fig
// or -table means the flag was not given.
func checkSelectors(fig, table int, instr uint64) error {
	if instr == 0 {
		return fmt.Errorf("-instr 0: no instructions to run (valid: 1 or more)")
	}
	if fig != 0 && (fig < 4 || fig > 10) {
		return fmt.Errorf("-fig %d: no such figure (valid: 4, 5, 6, 7, 8, 9, 10)", fig)
	}
	if table != 0 && table != 2 {
		return fmt.Errorf("-table %d: no such table (valid: 2)", table)
	}
	return nil
}
