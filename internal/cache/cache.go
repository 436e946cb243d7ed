// Package cache implements the set-associative, write-back, LRU cache model
// used for the L1 data cache, the unified L2, the counter cache
// (sequence-number cache) and the MAC cache of the simulated secure
// processor.
//
// The model tracks presence, dirtiness, and replacement order only; actual
// data bytes live in the functional layer of the memory controller. That
// split keeps timing simulation fast while letting functional mode reuse the
// same presence/dirty decisions the timing model makes.
//
// Replacement is exact LRU, kept as one 64-bit rank word per set: byte i
// holds way i's recency rank, 0 for the most recently used way. A hit
// re-ranks the set in a few branch-free word operations and the victim is
// read from the word in O(1), so a cache has at most 8 ways.
package cache

import (
	"fmt"
	"math/bits"
)

// maxWays is the most ways a set's rank word can hold: one byte each.
const maxWays = 8

// Config describes a cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	// LatencyCycles is the access (hit) latency charged by callers; the
	// cache itself is a zero-time structural model.
	LatencyCycles uint64
}

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %s: nonpositive geometry %+v", c.Name, c)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache %s: %d ways, at most %d supported", c.Name, c.Ways, maxWays)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	if c.SizeBytes%(c.Ways*c.BlockBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by way*block", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Eviction describes a block displaced by a fill.
type Eviction struct {
	Addr  uint64 // block-aligned address of the victim
	Dirty bool   // victim needs a write-back
}

// Stats accumulates access statistics.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// Accesses is total reads+writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses is total read+write misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// HitRate returns hits/accesses, or 1 if there were no accesses.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 1
	}
	return float64(a-s.Misses()) / float64(a)
}

// Per-line state is packed into parallel flat arrays (set-major, way-minor)
// instead of a struct-of-everything: the demand-lookup scan touches only the
// keys array, so an 8-way set costs one cache line of host memory instead of
// three. A key is (tag<<1 | valid) — zero means invalid, and no valid line
// is ever zero since the tag gains the bit. Dirty/pinned bits are off the
// compare path and only touched on hits and fills; replacement order is one
// rank word per set (see touch).
const (
	flagDirty  = 1 << 0
	flagPinned = 1 << 1
)

// Rank-word constants. rankInit gives way i rank i. The bytes of ways a
// cache does not have keep ranks at or above its way count, so touch never
// changes them and lruWay never matches them; every rank stays below 0x80.
const (
	rankOnes  = 0x0101010101010101
	rankHighs = 0x8080808080808080
	rankInit  = 0x0706050403020100
)

// touch returns rank word x with way made most recently used: every way
// more recent than it ages by one rank and it takes rank 0. With ranks
// below 0x80, (x | rankHighs) - r*rankOnes never borrows across bytes, and
// a byte's high bit is clear exactly where its rank is below r.
func touch(x uint64, way int) uint64 {
	sh := uint(way) * 8
	r := x >> sh & 0xff
	newer := ^((x | rankHighs) - r*rankOnes) & rankHighs
	return (x + newer>>7) &^ (0xff << sh)
}

// lruWay returns the way of rank word x holding rank ways-1, the least
// recently used way of a full set. The low ways bytes are a permutation of
// 0..ways-1, so exactly one matches, and the zero-byte test is exact for the
// lowest zero byte.
func lruWay(x uint64, ways int) int {
	y := x ^ uint64(ways-1)*rankOnes
	return bits.TrailingZeros64((y-rankOnes)&^y&rankHighs) >> 3
}

// Cache is a set-associative write-back cache with exact LRU replacement
// over at most 8 ways. Replacement state is one rank word per set:
// byte i is way i's recency rank (0 = most recently used), and the ranks of
// the valid ways order them exactly as their last fills and hits did. An
// invalid way keeps a rank but is filled before any valid way is evicted.
// Not safe for concurrent use; the simulator is single-threaded per run.
type Cache struct {
	cfg       Config
	ways      int
	keys      []uint64 // tag<<1|valid per line
	flags     []uint8  // dirty/pinned per line
	ranks     []uint64 // recency rank word per set
	setMask   uint64
	setBits   uint
	blockMask uint64
	blockBits uint

	Stats Stats
}

// New builds a cache, panicking on invalid geometry (configuration is
// programmer input, not runtime data).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	bb := uint(0)
	for 1<<bb != cfg.BlockBytes {
		bb++
	}
	sb := uint(0)
	for 1<<sb != nsets {
		sb++
	}
	nl := nsets * cfg.Ways
	ranks := make([]uint64, nsets)
	for i := range ranks {
		ranks[i] = rankInit
	}
	return &Cache{
		cfg:       cfg,
		ways:      cfg.Ways,
		keys:      make([]uint64, nl),
		flags:     make([]uint8, nl),
		ranks:     ranks,
		setMask:   uint64(nsets - 1),
		setBits:   sb,
		blockMask: ^uint64(cfg.BlockBytes - 1),
		blockBits: bb,
	}
}

// BlockAddr aligns addr down to its containing block.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr & c.blockMask }

// locate returns addr's set index and the key (tag<<1|valid) a resident
// copy of addr would carry.
func (c *Cache) locate(addr uint64) (set int, key uint64) {
	blk := addr >> c.blockBits
	return int(blk & c.setMask), (blk>>c.setBits)<<1 | 1
}

// Lookup performs a demand access. On a hit it updates LRU state (and the
// dirty bit for writes) and returns true. On a miss it returns false and
// leaves allocation to the caller via Fill, so the caller can model the
// fill's timing and any victim write-back first.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	set, key := c.locate(addr)
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	for i, k := range keys {
		if k == key {
			c.ranks[set] = touch(c.ranks[set], i)
			if write {
				c.flags[base+i] |= flagDirty
			}
			return true
		}
	}
	if write {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	return false
}

// Fill allocates addr's block (which must not already be present), marking
// it dirty if requested, and reports the evicted victim if any. The block
// takes the set's first invalid way; in a full set it displaces the least
// recently used way, or the least recently used unpinned way if that one is
// pinned. Fill panics, changing nothing, on a resident block or a full set
// with every way pinned.
func (c *Cache) Fill(addr uint64, dirty bool) (ev Eviction, evicted bool) {
	set, key := c.locate(addr)
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	victim := -1
	for i, k := range keys {
		if k == key {
			panic(fmt.Sprintf("cache %s: Fill of resident block %#x", c.cfg.Name, addr))
		}
		if k&1 == 0 && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = lruWay(c.ranks[set], c.ways)
		if c.flags[base+victim]&flagPinned != 0 {
			victim = c.lruUnpinned(set, addr)
		}
		dirtyVictim := c.flags[base+victim]&flagDirty != 0
		ev = Eviction{Addr: c.reconstruct(addr, keys[victim]>>1), Dirty: dirtyVictim}
		evicted = true
		c.Stats.Evictions++
		if dirtyVictim {
			c.Stats.DirtyEvicts++
		}
	}
	keys[victim] = key
	c.ranks[set] = touch(c.ranks[set], victim)
	var f uint8
	if dirty {
		f = flagDirty
	}
	c.flags[base+victim] = f
	c.Stats.Fills++
	return ev, evicted
}

// lruUnpinned returns the least recently used unpinned way of a full set,
// panicking if every way is pinned.
func (c *Cache) lruUnpinned(set int, addr uint64) int {
	base, x := set*c.ways, c.ranks[set]
	victim, oldest := -1, -1
	for i := 0; i < c.ways; i++ {
		if r := int(x >> (8 * i) & 0xff); c.flags[base+i]&flagPinned == 0 && r > oldest {
			victim, oldest = i, r
		}
	}
	if victim < 0 {
		panic(fmt.Sprintf("cache %s: all ways pinned in set of %#x", c.cfg.Name, addr))
	}
	return victim
}

// reconstruct rebuilds a victim's block address from its tag and the set
// index shared with addr.
func (c *Cache) reconstruct(addr, tag uint64) uint64 {
	setIdx := (addr >> c.blockBits) & c.setMask
	return (tag<<c.setBits | setIdx) << c.blockBits
}

// find returns the line index of a resident copy of addr, or -1.
func (c *Cache) find(addr uint64) int {
	set, key := c.locate(addr)
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	for i, k := range keys {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Line returns the index of the line holding addr, or -1 if addr is not
// resident, without touching LRU or stats. The index lies in [0, Lines())
// and stays fixed while the block is resident, so a caller can keep its own
// per-line state beside the cache: the counter store keeps each counter
// block's fetch-completion cycle this way, and the functional layer each
// resident block's bytes.
func (c *Cache) Line(addr uint64) int { return c.find(addr) }

// Lines returns the number of lines, sets times ways.
func (c *Cache) Lines() int { return len(c.keys) }

// Contains reports presence without touching LRU or stats. The RSR file
// uses this to check whether a page's blocks are already on-chip, and the
// Merkle walker to find the first cached tree node.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(addr) >= 0
}

// SetDirty marks a resident block dirty without counting an access,
// reporting whether the block was present. Page re-encryption uses this for
// its "lazy" handling of on-chip blocks (Section 4.2): the block is simply
// dirtied so its eventual natural write-back re-encrypts it.
func (c *Cache) SetDirty(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.flags[i] |= flagDirty
		return true
	}
	return false
}

// CleanLine clears the dirty bit of a resident block, reporting presence.
func (c *Cache) CleanLine(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.flags[i] &^= flagDirty
		return true
	}
	return false
}

// Invalidate removes a block, reporting whether it was present and dirty.
// Pinned blocks are removed too (the pin is a replacement hint, not a lock
// against explicit invalidation).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	if i := c.find(addr); i >= 0 {
		dirty = c.flags[i]&flagDirty != 0
		c.keys[i] = 0
		c.flags[i] = 0
		return true, dirty
	}
	return false, false
}

// Pin protects a resident block from replacement until Unpin. The memory
// system pins the demand block while its own miss handling (Merkle fills,
// victim write-backs) churns the cache — the structural analogue of an
// MSHR holding the line. Reports whether the block was present.
func (c *Cache) Pin(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.flags[i] |= flagPinned
		return true
	}
	return false
}

// Unpin releases a pinned block, reporting whether it was present.
func (c *Cache) Unpin(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.flags[i] &^= flagPinned
		return true
	}
	return false
}

// ForEach visits every resident block. Whole-memory re-encryption and the
// functional flush path use it.
func (c *Cache) ForEach(fn func(addr uint64, dirty bool)) {
	for li, k := range c.keys {
		if k&1 != 0 {
			si := uint64(li / c.ways)
			addr := ((k>>1)<<c.setBits | si) << c.blockBits
			fn(addr, c.flags[li]&flagDirty != 0)
		}
	}
}
