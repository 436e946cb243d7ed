package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ignorePlacementFixture exercises every legal and illegal placement of a
// "//secmemlint:ignore" comment. Lines marked WANT must still be reported;
// every other bytes.Equal call is suppressed by a correctly placed ignore.
const ignorePlacementFixture = `package fixture

import "bytes"

func plain(mac, other []byte) bool {
	return bytes.Equal(mac, other) // WANT
}

func trailing(mac, other []byte) bool {
	return bytes.Equal(mac, other) //secmemlint:ignore maccompare test fixture: trailing comment suppresses its own line
}

func standalone(mac, other []byte) bool {
	//secmemlint:ignore maccompare test fixture: standalone comment suppresses the line below
	return bytes.Equal(mac, other)
}

func noBleed(mac, other []byte) bool {
	a := bytes.Equal(mac, other) //secmemlint:ignore maccompare test fixture: must not leak onto the next line
	b := bytes.Equal(mac, other) // WANT
	return a && b
}

func standaloneGap(mac, other []byte) bool {
	//secmemlint:ignore maccompare test fixture: a blank line breaks the attachment

	return bytes.Equal(mac, other) // WANT
}
`

// TestIgnorePlacement pins the suppression semantics: a trailing ignore
// comment silences only its own line, and a standalone ignore comment
// silences only the line immediately below it.
func TestIgnorePlacement(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module ignorefixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "fixture.go"), ignorePlacementFixture)

	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not typecheck: %v", terr)
		}
	}

	wantLines := make(map[int]bool)
	for i, line := range strings.Split(ignorePlacementFixture, "\n") {
		if strings.HasSuffix(line, "// WANT") {
			wantLines[i+1] = true
		}
	}
	if len(wantLines) != 3 {
		t.Fatalf("fixture self-check: expected 3 WANT markers, found %d", len(wantLines))
	}

	gotLines := make(map[int]bool)
	for _, d := range RunScoped(pkgs, pkgs, []*Analyzer{MacCompare}) {
		if gotLines[d.Line] {
			t.Errorf("duplicate diagnostic on line %d", d.Line)
		}
		gotLines[d.Line] = true
	}
	for line := range wantLines {
		if !gotLines[line] {
			t.Errorf("line %d: expected a maccompare finding, got none", line)
		}
	}
	for line := range gotLines {
		if !wantLines[line] {
			t.Errorf("line %d: unexpected finding; a misplaced ignore failed to suppress (or suppression leaked)", line)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
