// Package merkle implements the K-ary Merkle authentication tree of Section
// 4.3: the leaf level covers program data *and* the direct counters used to
// encrypt it (so counter replay is detected), interior nodes are blocks of
// MACs authenticated with derivative counters, and the root MAC lives in an
// on-chip register out of the attacker's reach.
//
// The package provides the tree geometry (address mapping between protected
// blocks and the MAC blocks that cover them) and the functional root
// machinery; the timing walk (parallel or sequential level authentication)
// lives in the core package, which owns the caches and engines the walk
// touches.
package merkle

import "fmt"

// BlockSize is the block granularity of the tree.
const BlockSize = 64

// Geometry describes the tree's address layout.
type Geometry struct {
	// LeafBytes is the size of the protected leaf region: data plus direct
	// counters, starting at address 0.
	LeafBytes uint64
	// MacBits is the per-MAC size (32, 64, or 128 bits).
	MacBits int
	// Arity is how many child blocks one MAC block covers (512/MacBits).
	Arity uint64
	// Levels lists each tree level's base address and block count, level 0
	// covering the leaves.
	Levels []Level
}

// Level is one tier of MAC blocks.
type Level struct {
	Base   uint64
	Blocks uint64
}

// NewGeometry lays out a tree covering leafBytes of protected space with
// macBits-wide MACs, placing MAC blocks starting at macBase.
func NewGeometry(leafBytes, macBase uint64, macBits int) *Geometry {
	switch macBits {
	case 32, 64, 128:
	default:
		panic(fmt.Sprintf("merkle: MAC bits %d not in {32,64,128}", macBits))
	}
	if leafBytes == 0 || leafBytes%BlockSize != 0 || macBase < leafBytes {
		panic("merkle: invalid leaf region")
	}
	g := &Geometry{
		LeafBytes: leafBytes,
		MacBits:   macBits,
		Arity:     uint64(512 / macBits),
	}
	covered := leafBytes / BlockSize // blocks to cover at the next level
	base := macBase
	for covered > 1 {
		blocks := (covered + g.Arity - 1) / g.Arity
		g.Levels = append(g.Levels, Level{Base: base, Blocks: blocks})
		base += blocks * BlockSize
		covered = blocks
	}
	if len(g.Levels) == 0 {
		// A single-leaf region still needs one MAC block so the root
		// register has something to cover.
		g.Levels = append(g.Levels, Level{Base: base, Blocks: 1})
	}
	return g
}

// NumLevels is the number of MAC levels below the on-chip root.
func (g *Geometry) NumLevels() int { return len(g.Levels) }

// LevelName is the canonical metric/trace name for a tree level: "leaf" for
// -1 (the LevelOf convention for leaves), otherwise "levelN". Observability
// names like "merkle.level2.fetch" are built from it.
func LevelName(level int) string {
	if level < 0 {
		return "leaf"
	}
	return fmt.Sprintf("level%d", level)
}

// End returns the first address past the MAC region.
func (g *Geometry) End() uint64 {
	top := g.Levels[len(g.Levels)-1]
	return top.Base + top.Blocks*BlockSize
}

// MacBytes is the total MAC storage, for overhead reporting (the paper's
// "12-level tree = 33% overhead" style numbers).
func (g *Geometry) MacBytes() uint64 {
	var total uint64
	for _, l := range g.Levels {
		total += l.Blocks * BlockSize
	}
	return total
}

// LevelOf classifies a block address: -1 for leaves, otherwise the MAC
// level index. Panics on addresses outside the tree.
func (g *Geometry) LevelOf(addr uint64) int {
	if addr < g.LeafBytes {
		return -1
	}
	for i, l := range g.Levels {
		if addr >= l.Base && addr < l.Base+l.Blocks*BlockSize {
			return i
		}
	}
	panic(fmt.Sprintf("merkle: address %#x outside tree", addr))
}

// Parent returns the MAC block covering addr and the MAC's slot within it.
// ok is false when addr is the top-level block, whose MAC is the on-chip
// root register.
func (g *Geometry) Parent(addr uint64) (macBlock uint64, slot int, ok bool) {
	lvl := g.LevelOf(addr)
	var idx uint64
	if lvl == -1 {
		idx = addr / BlockSize
	} else {
		idx = (addr - g.Levels[lvl].Base) / BlockSize
	}
	next := lvl + 1
	if next >= len(g.Levels) {
		return 0, int(idx % g.Arity), false
	}
	l := g.Levels[next]
	return l.Base + idx/g.Arity*BlockSize, int(idx % g.Arity), true
}

// MacOffset returns the byte range [lo, hi) of a MAC slot within its block.
func (g *Geometry) MacOffset(slot int) (lo, hi int) {
	w := g.MacBits / 8
	return slot * w, (slot + 1) * w
}

// Root is the on-chip register holding the MAC of the top-level tree block.
// It is the only piece of authentication state the attacker can never
// touch; everything else derives its trust from it.
type Root struct {
	mac   []byte
	valid bool
}

// Set stores the root MAC.
func (r *Root) Set(mac []byte) {
	r.mac = append(r.mac[:0], mac...)
	r.valid = true
}

// Get returns the root MAC and whether one has been set.
func (r *Root) Get() ([]byte, bool) { return r.mac, r.valid }
