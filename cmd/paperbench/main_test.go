package main

import (
	"strings"
	"testing"
)

func TestCheckSelectors(t *testing.T) {
	for _, c := range []struct {
		fig, table int
		bad        string // substring of the error, "" for valid
	}{
		{0, 0, ""},
		{4, 0, ""},
		{10, 2, ""},
		{0, 2, ""},
		{3, 2, "-fig 3"},
		{11, 0, "-fig 11"},
		{-1, 0, "-fig -1"},
		{6, 1, "-table 1"},
		{0, 3, "-table 3"},
	} {
		err := checkSelectors(c.fig, c.table)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("-fig %d -table %d: %v, want valid", c.fig, c.table, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad) || !strings.Contains(err.Error(), "valid:")):
			t.Errorf("-fig %d -table %d: error %v, want one naming %q and the valid set", c.fig, c.table, err, c.bad)
		}
	}
}
