package main

import (
	"strings"
	"testing"
)

func TestCheckRecord(t *testing.T) {
	for _, c := range []struct {
		bench string
		n     uint64
		out   string
		bad   []string // substrings of the error, none for valid
	}{
		{"mcf", 10, "x.smtr", nil},
		{"nosuch", 10, "x.smtr", []string{`"nosuch"`, "mcf", "swim"}},
		{"mcf", 0, "x.smtr", []string{"-n 0"}},
		{"mcf", 10, "", []string{"-o"}},
	} {
		err := checkRecord(c.bench, c.n, c.out)
		if c.bad == nil {
			if err != nil {
				t.Errorf("-bench %s -n %d -o %q: %v, want valid", c.bench, c.n, c.out, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-bench %s -n %d -o %q accepted, want an error", c.bench, c.n, c.out)
			continue
		}
		for _, want := range c.bad {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-bench %s -n %d -o %q: error %q does not name %s", c.bench, c.n, c.out, err, want)
			}
		}
	}
}
