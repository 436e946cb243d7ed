// Command secmemlint runs the repository's domain-specific static analyzers
// — the machine-checked crypto invariants behind the paper's security
// argument (see internal/lint and the "Static analysis & invariants"
// sections of README.md and DESIGN.md).
//
// Usage:
//
//	secmemlint [flags] [packages]
//
// Packages are directory patterns like ./... or ./internal/core (default
// ./...). Exit status is 0 when clean, 1 when findings were reported, and 2
// on usage or load errors.
//
// Flags:
//
//	-format f         output format: text (default), json, or github
//	                  (GitHub Actions ::error workflow annotations)
//	-json             shorthand for -format=json
//	-enable  a,b,...  run only the named analyzers
//	-disable a,b,...  skip the named analyzers
//	-list             print the analyzer suite and exit
//	-dump-summaries   print the inferred interprocedural flow table
//	                  (per-function result/param/global/field effects and
//	                  sink facts) instead of findings, then exit 0
//	-suppressions     list every "//secmemlint:ignore" comment with
//	                  file:line, analyzers, and reason (make lint-fix-audit)
//
// The suite includes the taint-tracking analyzers (secretflow, cttiming,
// taintescape), which are seeded by "//secmemlint:secret" annotations on
// struct fields, variables, and function parameters/results; see
// internal/lint/taint.go for the annotation grammar.
//
// Deliberate exceptions are silenced at the site with a
// "//secmemlint:ignore <analyzer> <reason>" comment; the reason is required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"secmem/internal/lint"
)

func main() {
	format := flag.String("format", "text", "output format: text, json, or github")
	jsonOut := flag.Bool("json", false, "shorthand for -format=json")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	dumpSummaries := flag.Bool("dump-summaries", false, "print the inferred interprocedural flow table and exit")
	suppressions := flag.Bool("suppressions", false, "list every suppression comment with its reason and exit")
	flag.Parse()
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "secmemlint: unknown -format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(analyzers, *enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secmemlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Load the whole module, then report only on the selected patterns:
	// interprocedural summaries for out-of-scope callees keep a scoped run
	// like `secmemlint ./internal/core` as precise as a full one.
	all, pkgs, err := lint.LoadScoped(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secmemlint:", err)
		os.Exit(2)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "secmemlint: warning: %s: %v\n", pkg.Path, terr)
		}
	}

	if *dumpSummaries {
		fmt.Print(lint.DumpSummaries(all))
		return
	}
	if *suppressions {
		sups := lint.Suppressions(pkgs)
		if *format == "json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if sups == nil {
				sups = []lint.Suppression{}
			}
			if err := enc.Encode(sups); err != nil {
				fmt.Fprintln(os.Stderr, "secmemlint:", err)
				os.Exit(2)
			}
			return
		}
		for _, s := range sups {
			fmt.Printf("%s:%d: %s — %s\n", s.File, s.Line, strings.Join(s.Analyzers, ","), s.Reason)
		}
		return
	}

	diags := lint.RunScoped(pkgs, all, analyzers)
	relativize(diags)
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "secmemlint:", err)
			os.Exit(2)
		}
	case "github":
		for _, d := range diags {
			fmt.Println(githubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// githubAnnotation renders a diagnostic as a GitHub Actions workflow command
// so findings surface inline on the pull-request diff:
//
//	::error file=internal/core/x.go,line=12,col=3,title=secmemlint/maccompare::message
func githubAnnotation(d lint.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		escapeProperty(d.File), d.Line, d.Col,
		escapeProperty("secmemlint/"+d.Analyzer), escapeData(d.Message))
}

// escapeData escapes a workflow-command message per the Actions runner rules.
func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// escapeProperty additionally escapes the property-value delimiters.
func escapeProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// selectAnalyzers applies -enable / -disable, rejecting unknown names so a
// typo cannot silently skip a check.
func selectAnalyzers(all []*lint.Analyzer, enable, disable string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(csv string) (map[string]bool, error) {
		set := make(map[string]bool)
		if csv == "" {
			return set, nil
		}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	enabled, err := parse(enable)
	if err != nil {
		return nil, err
	}
	disabled, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if len(enabled) > 0 && !enabled[a.Name] {
			continue
		}
		if disabled[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// relativize rewrites absolute file paths relative to the working directory
// when that makes them shorter and unambiguous.
func relativize(diags []lint.Diagnostic) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i, d := range diags {
		if rel, err := filepath.Rel(cwd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
}
