package main

import (
	"strings"
	"testing"
)

func TestCheckSelectors(t *testing.T) {
	for _, c := range []struct {
		fig, table int
		instr      uint64
		bad        string // substring of the error, "" for valid
	}{
		{0, 0, 1, ""},
		{4, 0, 4_000_000, ""},
		{10, 2, 4_000_000, ""},
		{0, 2, 4_000_000, ""},
		{3, 2, 4_000_000, "-fig 3"},
		{11, 0, 4_000_000, "-fig 11"},
		{-1, 0, 4_000_000, "-fig -1"},
		{6, 1, 4_000_000, "-table 1"},
		{0, 3, 4_000_000, "-table 3"},
		// harness.New would turn zero into its own 2M default.
		{0, 0, 0, "-instr 0"},
		{4, 2, 0, "-instr 0"},
	} {
		err := checkSelectors(c.fig, c.table, c.instr)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("-fig %d -table %d -instr %d: %v, want valid", c.fig, c.table, c.instr, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad) || !strings.Contains(err.Error(), "valid:")):
			t.Errorf("-fig %d -table %d -instr %d: error %v, want one naming %q and the valid set", c.fig, c.table, c.instr, err, c.bad)
		}
	}
}
