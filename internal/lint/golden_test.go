package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenFixtures runs each analyzer over its testdata packages and
// checks the findings against the fixtures' "// want \"regexp\"" line
// annotations: every annotated line must produce a matching diagnostic, and
// no diagnostic may appear on an unannotated line.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixtures []string // subdirectories of testdata/src
	}{
		{MacCompare, []string{"maccompare"}},
		{SeedDiscipline, []string{"seeddiscipline", "seeddiscipline/gcmmode"}},
		{RandHygiene, []string{"randhygiene/cryptoish", "randhygiene/trace"}},
		{VerifyDrop, []string{"verifydrop"}},
		{SliceRetain, []string{"sliceretain/gcmmode", "sliceretain/plain"}},
		{SecretFlow, []string{"secretflow/leaky", "secretflow/clean", "secretflow/interproc"}},
		{CTTiming, []string{"cttiming/branchy", "cttiming/clean", "cttiming/interproc"}},
		{TaintEscape, []string{"taintescape/alias", "taintescape/clean"}},
		{Determinism, []string{"determinism/violating", "determinism/clean"}},
		{GoroutineLife, []string{"goroutinelife/leaky", "goroutinelife/clean"}},
	}
	for _, c := range cases {
		for _, fixture := range c.fixtures {
			name := c.analyzer.Name + "/" + strings.ReplaceAll(fixture, "/", "_")
			t.Run(name, func(t *testing.T) {
				runGolden(t, c.analyzer, filepath.Join("testdata", "src", filepath.FromSlash(fixture)))
			})
		}
	}
}

func runGolden(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not typecheck: %v", pkg.Path, terr)
		}
	}
	wants := parseWants(t, dir)
	diags := Run(pkgs, []*Analyzer{a})
	for _, d := range diags {
		key := wantKey{filepath.Base(d.File), d.Line}
		w, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", key.file, key.line, d.Message, w.re)
		}
		w.matched = true
	}
	for key, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q but no diagnostic reported", key.file, key.line, w.re)
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

func parseWants(t *testing.T, dir string) map[wantKey]*want {
	t.Helper()
	wants := make(map[wantKey]*want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			quoted, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want annotation %s: %v", e.Name(), line, m[1], err)
			}
			re, err := regexp.Compile(quoted)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, quoted, err)
			}
			if _, dup := wants[wantKey{e.Name(), line}]; dup {
				t.Fatalf("%s:%d: multiple want annotations on one line", e.Name(), line)
			}
			wants[wantKey{e.Name(), line}] = &want{re: re}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(wants) == 0 {
		// A fixture with no annotations is legal (negative fixtures), but a
		// typo'd annotation regexp would silently pass; sanity-log it.
		t.Logf("fixture %s has no want annotations (negative fixture)", dir)
	}
	return wants
}
