package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Cols: []string{"a", "long-header", "c"}}
	tbl.AddRow("x", "1", "2")
	tbl.AddRow("longer-cell", "3", "4")
	tbl.AddNote("n=%d", 2)
	out := tbl.String()
	if !strings.Contains(out, "T\n=") {
		t.Error("title underline missing")
	}
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "longer-cell") {
		t.Error("cells missing")
	}
	if !strings.Contains(out, "note: n=2") {
		t.Error("note missing")
	}
	// Columns align: every data line has the same prefix width up to col 2.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var dataLines []string
	for _, l := range lines[2:] {
		if !strings.HasPrefix(l, "-") && !strings.HasPrefix(l, "note") {
			dataLines = append(dataLines, l)
		}
	}
	idx := strings.Index(dataLines[0], "long-header")
	for _, l := range dataLines[1:] {
		cell2 := l[idx : idx+1]
		if cell2 == " " {
			t.Errorf("misaligned row: %q", l)
		}
	}
}

func TestAddRowPanicsOnWidthMismatch(t *testing.T) {
	tbl := Table{Cols: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tbl.AddRow("only-one")
}

func TestTryAddRow(t *testing.T) {
	tbl := Table{Title: "T", Cols: []string{"a", "b"}}
	if err := tbl.TryAddRow("1", "2"); err != nil {
		t.Fatalf("well-formed row rejected: %v", err)
	}
	err := tbl.TryAddRow("only-one")
	if err == nil {
		t.Fatal("short row accepted")
	}
	for _, want := range []string{"1 cells", `"T"`, "2 columns"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if err := tbl.TryAddRow("1", "2", "3"); err == nil {
		t.Fatal("long row accepted")
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rejected rows were appended: %d rows", len(tbl.Rows))
	}
}

func TestFormatters(t *testing.T) {
	if F(0.12345) != "0.123" {
		t.Errorf("F = %s", F(0.12345))
	}
	if Pct(0.5) != "50.0%" {
		t.Errorf("Pct = %s", Pct(0.5))
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean nonzero")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestDurationUnits(t *testing.T) {
	cases := []struct {
		s    float64
		want string
	}{
		{0.1, "0.10 s"},
		{30, "30.0 s"},
		{300, "5.0 min"},
		{7200 * 3, "6.0 hr"},
		{86400 * 40, "40.0 days"},
		{31557600 * 5, "5.0 yr"},
		{31557600 * 1e6, "1000 millennia"},
		{math.Inf(1), "never"},
	}
	for _, c := range cases {
		if got := Duration(c.s); got != c.want {
			t.Errorf("Duration(%v) = %q, want %q", c.s, got, c.want)
		}
	}
}
