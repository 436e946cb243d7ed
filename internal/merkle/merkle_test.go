package merkle

import (
	"testing"
	"testing/quick"
)

func TestGeometrySmall(t *testing.T) {
	// 64 leaf blocks (4 KB), 64-bit MACs -> arity 8: levels of 8 and 1.
	g := NewGeometry(4096, 4096, 64)
	if g.Arity != 8 {
		t.Fatalf("arity = %d", g.Arity)
	}
	if g.NumLevels() != 2 {
		t.Fatalf("levels = %d, want 2", g.NumLevels())
	}
	if g.Levels[0].Blocks != 8 || g.Levels[1].Blocks != 1 {
		t.Errorf("level blocks = %+v", g.Levels)
	}
	if g.Levels[0].Base != 4096 {
		t.Errorf("level 0 base = %#x", g.Levels[0].Base)
	}
	if g.Levels[1].Base != 4096+8*64 {
		t.Errorf("level 1 base = %#x", g.Levels[1].Base)
	}
	if g.MacBytes() != 9*64 {
		t.Errorf("mac bytes = %d", g.MacBytes())
	}
	if g.End() != 4096+9*64 {
		t.Errorf("end = %#x", g.End())
	}
}

func TestGeometryPaperScale(t *testing.T) {
	// 512 MB data + 64 MB counters of leaves, 64-bit MACs: the paper's
	// configuration. Verify level count is log8-ish and total overhead is
	// about 1/7 of the leaf space (sum of 1/8 + 1/64 + ...).
	leaf := uint64(512+64) << 20
	g := NewGeometry(leaf, leaf, 64)
	if g.NumLevels() != 8 {
		t.Errorf("levels = %d, want 8 for 9M leaf blocks at arity 8", g.NumLevels())
	}
	overhead := float64(g.MacBytes()) / float64(leaf)
	if overhead < 0.13 || overhead > 0.15 {
		t.Errorf("MAC overhead = %.3f, want ~1/7", overhead)
	}
}

func TestGeometry128BitMacs(t *testing.T) {
	// 128-bit MACs -> arity 4 -> deeper tree: paper notes "only four
	// 128-bit codes fit in a 64-byte block".
	g64 := NewGeometry(1<<20, 1<<20, 64)
	g128 := NewGeometry(1<<20, 1<<20, 128)
	if g128.Arity != 4 {
		t.Fatalf("arity = %d", g128.Arity)
	}
	if g128.NumLevels() <= g64.NumLevels() {
		t.Errorf("128-bit tree not deeper: %d vs %d", g128.NumLevels(), g64.NumLevels())
	}
	if g128.MacBytes() <= g64.MacBytes() {
		t.Error("128-bit tree not larger")
	}
}

func TestParentAndChain(t *testing.T) {
	g := NewGeometry(4096, 4096, 64)
	// Leaf block 9 (addr 576): parent MAC block index 9/8=1, slot 1.
	mac, slot, ok := g.Parent(576)
	if !ok || mac != 4096+64 || slot != 1 {
		t.Errorf("Parent(576) = (%#x, %d, %v)", mac, slot, ok)
	}
	// That level-0 block's parent is the single level-1 block, slot 1.
	mac2, slot2, ok := g.Parent(mac)
	if !ok || mac2 != g.Levels[1].Base || slot2 != 1 {
		t.Errorf("Parent(level0) = (%#x, %d, %v)", mac2, slot2, ok)
	}
	// The top block has no in-memory parent.
	_, slot3, ok := g.Parent(mac2)
	if ok {
		t.Error("top block reported an in-memory parent")
	}
	if slot3 != 0 {
		t.Errorf("top block root slot = %d", slot3)
	}
	chain := chain(g, 576)
	if len(chain) != 2 || chain[0] != mac || chain[1] != mac2 {
		t.Errorf("chain = %#v", chain)
	}
}

func TestLevelOf(t *testing.T) {
	g := NewGeometry(4096, 4096, 64)
	if g.LevelOf(0) != -1 || g.LevelOf(4095) != -1 {
		t.Error("leaf classification wrong")
	}
	if g.LevelOf(4096) != 0 {
		t.Error("level 0 classification wrong")
	}
	if g.LevelOf(g.Levels[1].Base) != 1 {
		t.Error("level 1 classification wrong")
	}
}

func TestLevelOfOutsidePanics(t *testing.T) {
	g := NewGeometry(4096, 4096, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-tree address did not panic")
		}
	}()
	g.LevelOf(g.End())
}

func TestMacOffset(t *testing.T) {
	g := NewGeometry(4096, 4096, 64)
	lo, hi := g.MacOffset(3)
	if lo != 24 || hi != 32 {
		t.Errorf("MacOffset(3) = (%d, %d)", lo, hi)
	}
}

func TestChainTerminatesAndDescendsFromAnyLeaf(t *testing.T) {
	g := NewGeometry(1<<22, 1<<22, 32) // arity 16, 4 MB of leaves
	f := func(raw uint32) bool {
		leaf := (uint64(raw) % (1 << 22 / 64)) * 64
		chain := chain(g, leaf)
		if len(chain) != g.NumLevels() {
			return false
		}
		// Each chain element must be at the next level up.
		for i, mac := range chain {
			if g.LevelOf(mac) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSiblingLeavesShareParent(t *testing.T) {
	g := NewGeometry(1<<20, 1<<20, 64)
	// Blocks 0..7 share a level-0 MAC block; block 8 does not.
	p0, _, _ := g.Parent(0)
	p7, _, _ := g.Parent(7 * 64)
	p8, _, _ := g.Parent(8 * 64)
	if p0 != p7 {
		t.Error("siblings have different parents")
	}
	if p0 == p8 {
		t.Error("non-siblings share a parent")
	}
	// Slots within the parent are distinct.
	_, s0, _ := g.Parent(0)
	_, s7, _ := g.Parent(7 * 64)
	if s0 == s7 {
		t.Error("distinct children share a slot")
	}
}

func TestRootRegister(t *testing.T) {
	var r Root
	if _, ok := r.Get(); ok {
		t.Error("unset root reported valid")
	}
	r.Set([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	mac, ok := r.Get()
	if !ok || len(mac) != 8 || mac[0] != 1 {
		t.Errorf("root = (%x, %v)", mac, ok)
	}
	// Set must copy, not alias.
	src := []byte{9, 9}
	r.Set(src)
	src[0] = 0
	mac, _ = r.Get()
	if mac[0] != 9 {
		t.Error("Set aliased caller's slice")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name               string
		leafBytes, macBase uint64
		bits               int
	}{
		{"bits", 4096, 4096, 48},
		{"empty", 0, 0, 64},
		{"unaligned", 100, 4096, 64},
		{"overlap", 4096, 1024, 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewGeometry(tc.leafBytes, tc.macBase, tc.bits)
		}()
	}
}

func TestLevelName(t *testing.T) {
	cases := []struct {
		level int
		want  string
	}{
		{-1, "leaf"},
		{0, "level0"},
		{2, "level2"},
		{11, "level11"},
	}
	for _, c := range cases {
		if got := LevelName(c.level); got != c.want {
			t.Errorf("LevelName(%d) = %q, want %q", c.level, got, c.want)
		}
	}
}

// chain walks Parent from a leaf up to the top-level block: the MAC blocks
// a miss must authenticate.
func chain(g *Geometry, leafAddr uint64) []uint64 {
	var path []uint64
	for addr := leafAddr; ; {
		mac, _, ok := g.Parent(addr)
		if !ok {
			return path
		}
		path = append(path, mac)
		addr = mac
	}
}
