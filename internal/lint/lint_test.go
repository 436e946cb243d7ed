package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepositoryClean runs the full analyzer suite over the real repository
// and requires zero findings: `go test ./...` permanently enforces the
// paper's crypto invariants. If this test fails, either fix the flagged
// code or — for a deliberate exception — add a
// "//secmemlint:ignore <analyzer> <reason>" comment at the site.
func TestRepositoryClean(t *testing.T) {
	pkgs := loadRepo(t)
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("repository violates a crypto invariant: %s", d)
	}
}

// TestRepositoryTypechecks keeps the loader honest: analyzer precision
// depends on type information, so the whole repo must typecheck under the
// stdlib-only loader.
func TestRepositoryTypechecks(t *testing.T) {
	for _, pkg := range loadRepo(t) {
		for _, err := range pkg.TypeErrors {
			t.Errorf("%s: %v", pkg.Path, err)
		}
	}
}

// TestViolationsAreDetected guards against the suite rotting into a no-op:
// the golden fixtures must keep producing findings when run as a whole, the
// same way a reintroduced bytes.Equal MAC compare in the real tree would.
func TestViolationsAreDetected(t *testing.T) {
	fixtures := map[string]string{ // analyzer -> violating fixture dir
		"maccompare":     "maccompare",
		"seeddiscipline": "seeddiscipline",
		"randhygiene":    "randhygiene/cryptoish",
		"verifydrop":     "verifydrop",
		"sliceretain":    "sliceretain/gcmmode",
		"secretflow":     "secretflow/interproc",
		"cttiming":       "cttiming/interproc",
		"taintescape":    "taintescape/alias",
		"sharedstate":    "sharedstate/racy",
		"determinism":    "determinism/violating",
		"goroutinelife":  "goroutinelife/leaky",
	}
	for name, dir := range fixtures {
		pkgs, err := Load(filepath.Join("testdata", "src", filepath.FromSlash(dir)), []string{"."})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diags := Run(pkgs, All())
		found := false
		for _, d := range diags {
			if d.Analyzer == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: violating fixture %s produced no %s finding", name, dir, name)
		}
	}
}

// TestSuppressionRequiresReason: a bare ignore comment without a reason must
// not silence anything.
func TestSuppressionRequiresReason(t *testing.T) {
	pkgs := loadRepo(t)
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for file, byLine := range ignores {
			for line := range byLine {
				if !strings.HasSuffix(file, ".go") || line <= 0 {
					t.Errorf("malformed ignore record %s:%d", file, line)
				}
			}
		}
	}
}

// TestSuppressionsNameAnalyzers: a suppression whose analyzer name is a
// typo, or names an analyzer since deleted, silences nothing while still
// reading as a reviewed exception, so every one must name an analyzer of
// the suite or "all".
func TestSuppressionsNameAnalyzers(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, s := range Suppressions(loadRepo(t)) {
		for _, name := range s.Analyzers {
			if !known[name] {
				t.Errorf("%s:%d: suppression names no analyzer: %q", s.File, s.Line, name)
			}
		}
	}
}

// TestSuppressionsAreLive: every "//secmemlint:ignore" must silence a
// finding of each analyzer it names on its target line. A waiver that
// silences nothing reads as a reviewed exception while hiding nothing, and
// would swallow a new finding that later lands on its line unreviewed.
func TestSuppressionsAreLive(t *testing.T) {
	pkgs := loadRepo(t)
	type site struct {
		file string
		line int
	}
	found := make(map[site]map[string]bool)
	for _, d := range runUnsuppressed(pkgs, pkgs, All()) {
		at := site{d.File, d.Line}
		if found[at] == nil {
			found[at] = make(map[string]bool)
		}
		found[at][d.Analyzer] = true
	}
	var dead []string
	for file, byLine := range collectModuleIgnores(pkgs) {
		for line, names := range byLine {
			at := found[site{file, line}]
			for _, name := range names {
				if at[name] || name == "all" && len(at) > 0 {
					continue
				}
				dead = append(dead, fmt.Sprintf("%s:%d: suppression of %s silences no finding", file, line, name))
			}
		}
	}
	sort.Strings(dead)
	for _, msg := range dead {
		t.Error(msg)
	}
}

var repoPkgs []*Package

func loadRepo(t *testing.T) []*Package {
	t.Helper()
	if repoPkgs == nil {
		pkgs, err := Load(filepath.Join("..", ".."), []string{"./..."})
		if err != nil {
			t.Fatalf("loading repository: %v", err)
		}
		repoPkgs = pkgs
	}
	return repoPkgs
}
