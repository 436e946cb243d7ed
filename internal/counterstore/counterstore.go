// Package counterstore implements the counter organizations compared by the
// paper — split counters (the contribution), monolithic per-block counters
// of 8/16/32/64 bits (prior work), and a globally incremented counter — plus
// the on-chip counter cache (sequence-number cache) through which all of
// them are accessed, and the growth-rate accounting behind Table 2.
//
// The store always maintains functional counter values (they are needed for
// seed construction, overflow detection, and growth statistics even in
// timing-only runs). Every counter lives in the 64-byte image of its counter
// block, laid out as memory stores it (see pack.go), so filling or evicting
// a counter block copies its image. The store also manages derivative
// counters for metadata blocks (counter blocks and Merkle MAC blocks): those
// share the counter cache but live in their own region, 16 bits each, and
// wrap without an overflow event (Section 4.3).
package counterstore

import (
	"fmt"
	"math"
	"math/bits"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/sim"
	"secmem/internal/sparse"
)

// BlockSize is the cache/memory block size in bytes.
const BlockSize = 64

// Derivative counters (Section 4.3) are 16 bits each, packed 32 to a
// block: dense enough that the counter cache covers 2 KB of metadata per
// line. They wrap without an overflow event; the largest over the 21
// benchmarks at 4M instructions on the default machine is 882 (mcf).
const (
	derivBits     = 16
	derivPerBlock = BlockSize * 8 / derivBits
)

// Org is the counter organization.
type Org int

const (
	// OrgSplit is the paper's minor/major split counter.
	OrgSplit Org = iota
	// OrgMono is a monolithic per-block counter of Bits bits.
	OrgMono
	// OrgGlobal is a single on-chip counter; per-block values are stored for
	// decryption like 64-bit monolithic counters.
	OrgGlobal
)

// Regions tells the store where counter state lives in the physical address
// map and how to classify block addresses.
type Regions struct {
	// DataBytes is the size of the program-data region starting at 0.
	DataBytes uint64
	// DirectBase is the base of the direct-counter region. Everything at or
	// above it (counter blocks and Merkle MAC blocks) is metadata covered
	// by derivative counters.
	DirectBase uint64
	// DerivBase is the base of the derivative-counter region.
	DerivBase uint64
}

// Config parameterizes the store.
type Config struct {
	Org        Org
	Bits       int // monolithic/global counter width
	MinorBits  int // split minor width
	PageBlocks int // split encryption-page size in blocks
	Regions    Regions
	// Cache is the counter-cache geometry.
	Cache cache.Config
}

// FromSystem derives the store configuration from a system config and the
// memory layout regions.
func FromSystem(sc config.SystemConfig, r Regions) Config {
	c := Config{
		Bits:       sc.MonoCounterBits,
		MinorBits:  sc.MinorBits,
		PageBlocks: sc.PageBlocks,
		Regions:    r,
	}
	switch sc.Enc {
	case config.EncCounterSplit:
		c.Org = OrgSplit
	case config.EncCounterGlobal:
		c.Org = OrgGlobal
	case config.EncCounterMono:
		c.Org = OrgMono
	default:
		// Authentication-only GCM (Figures 7 and 8) still maintains
		// per-block counters; they are organized as the paper's split
		// counters — that is the proposal being evaluated.
		c.Org = OrgSplit
	}
	c.Cache = sc.CounterCache
	return c
}

// OverflowKind classifies the consequence of a counter increment.
type OverflowKind int

const (
	// NoOverflow: the common case.
	NoOverflow OverflowKind = iota
	// PageOverflow: a split minor counter wrapped; the block's encryption
	// page must be re-encrypted under the next major counter.
	PageOverflow
	// FullOverflow: a monolithic or global counter wrapped; the whole
	// memory must be re-encrypted under a new key.
	FullOverflow
)

// Overflow describes an increment's overflow consequence.
type Overflow struct {
	Kind OverflowKind
	// PageAddr is the first data address of the affected encryption page
	// (PageOverflow only).
	PageAddr uint64
}

// LookupResult classifies a counter-cache access.
type LookupResult int

const (
	// Hit: counter on-chip and ready.
	Hit LookupResult = iota
	// HalfMiss: counter block already being fetched; ready when the
	// outstanding fetch completes. (The paper's Figure 6 "half miss".)
	HalfMiss
	// Miss: counter block must be fetched from memory.
	Miss
)

// Stats accumulates counter activity.
type Stats struct {
	Hits       uint64
	HalfMisses uint64
	Misses     uint64

	Increments      uint64 // data-block counter increments (write-backs)
	DerivIncrements uint64 // MAC-block counter increments
	MinorOverflows  uint64 // split: page re-encryptions triggered
	FullOverflows   uint64 // mono/global: whole-memory re-encryptions
}

// HitRate is hits over all lookups.
func (s Stats) HitRate() float64 {
	n := s.Hits + s.HalfMisses + s.Misses
	if n == 0 {
		return 1
	}
	return float64(s.Hits) / float64(n)
}

// counterBlock is one counter block's on-chip state: its memory image and,
// for a direct counter block, the write-back count of each data block it
// covers (Table 2), one byte each, allocated with its first data
// write-back. The counts are statistics, not hardware state, so they stay
// outside the image.
type counterBlock struct {
	img  [BlockSize]byte
	incr []uint8
}

// wideCount in a data block's count byte means the block has been written
// back wideCount times or more, and its exact count is in the store's wide
// table. The largest count over the 21 benchmarks at 4M instructions is 98
// (mcf), so no benchmark run fills that table.
const wideCount = math.MaxUint8

// Store holds all counter state for one simulated machine.
type Store struct {
	cfg Config

	// Counter blocks by index in the direct-counter and derivative-counter
	// regions, each allocated with its first write.
	direct, deriv sparse.Table[counterBlock]
	global        uint64

	// Data counters in a direct counter block: 1<<perShift of them, each
	// width bits, the first at bit offset first (past the split major).
	perShift     uint
	first, width uint

	// Growth accounting (Table 2): the fastest per-data-block count, and
	// the exact count of each data block whose count byte reads wideCount,
	// by data block index.
	maxIncr  uint64
	maxBlock uint64
	wide     sparse.Table[uint64]

	cache *cache.Cache
	// fillDone holds, per counter-cache line, the cycle at which the fetch
	// that filled the line completes, or zero once a hit has seen it pass.
	// A refill overwrites it, so it belongs to the block resident there.
	fillDone []sim.Time

	Stats Stats
}

// New builds a store.
func New(cfg Config) *Store {
	s := &Store{cfg: cfg}
	switch {
	case cfg.Org == OrgSplit:
		pb := cfg.PageBlocks
		if cfg.MinorBits < 1 || cfg.MinorBits > 16 || pb <= 0 || pb&(pb-1) != 0 || 64+pb*cfg.MinorBits > 512 {
			panic(fmt.Sprintf("counterstore: bad split geometry %+v", cfg))
		}
		s.first, s.width = 64, uint(cfg.MinorBits)
		s.perShift = uint(bits.TrailingZeros(uint(pb)))
	case cfg.Bits != 8 && cfg.Bits != 16 && cfg.Bits != 32 && cfg.Bits != 64:
		panic(fmt.Sprintf("counterstore: bad counter width %d", cfg.Bits))
	case cfg.Org == OrgGlobal:
		s.width = 64 // stored per-block values are full width for decryption
	default:
		s.width = uint(cfg.Bits)
	}
	if cfg.Org != OrgSplit {
		s.perShift = uint(bits.TrailingZeros(512 / s.width))
	}
	s.cache = cache.New(cfg.Cache)
	s.fillDone = make([]sim.Time, s.cache.Lines())
	return s
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Cache exposes the counter cache for statistics reporting.
func (s *Store) Cache() *cache.Cache { return s.cache }

// PageAddr returns the first data address of the encryption page holding
// addr (split organization).
func (s *Store) PageAddr(addr uint64) uint64 {
	pageBytes := uint64(s.cfg.PageBlocks) * BlockSize
	return addr / pageBytes * pageBytes
}

// isMeta reports whether addr is a metadata block (a counter block or a
// Merkle MAC block); metadata blocks are covered by derivative counters.
func (s *Store) isMeta(addr uint64) bool {
	return addr >= s.cfg.Regions.DirectBase
}

// CounterBlockAddr maps a protected block to the memory block holding its
// counter. Data blocks map into the direct-counter region with a density
// depending on the organization; metadata blocks map into the
// derivative-counter region, 32 counters per block.
func (s *Store) CounterBlockAddr(addr uint64) uint64 {
	if s.isMeta(addr) {
		return s.cfg.Regions.DerivBase + s.derivIndex(addr)/derivPerBlock*BlockSize
	}
	return s.cfg.Regions.DirectBase + addr/BlockSize>>s.perShift*BlockSize
}

// derivIndex is a metadata block's index, counted from DirectBase.
func (s *Store) derivIndex(addr uint64) uint64 {
	return (addr - s.cfg.Regions.DirectBase) / BlockSize
}

// locate finds the counter of a protected block: its counter block's table
// and index there, and its bit offset and width in the image.
func (s *Store) locate(addr uint64) (t *sparse.Table[counterBlock], cb uint64, off, width uint) {
	if s.isMeta(addr) {
		i := s.derivIndex(addr)
		return &s.deriv, i / derivPerBlock, uint(i%derivPerBlock) * derivBits, derivBits
	}
	i := addr / BlockSize
	return &s.direct, i >> s.perShift, s.first + uint(i&(1<<s.perShift-1))*s.width, s.width
}

// Value returns the current counter value for a protected block, as used in
// the encryption/authentication seed. Split counters concatenate major and
// minor (major << minorBits | minor).
func (s *Store) Value(addr uint64) uint64 {
	t, cb, off, w := s.locate(addr)
	b := t.At(cb)
	if b == nil {
		return 0
	}
	v := field(&b.img, off, w)
	if s.cfg.Org == OrgSplit && !s.isMeta(addr) {
		v |= field(&b.img, 0, 64) << w
	}
	return v
}

// ValueWithMajor returns a split-counter value under an explicit major (the
// RSR uses the page's old major to decrypt blocks during re-encryption).
func (s *Store) ValueWithMajor(addr, major uint64) uint64 {
	t, cb, off, w := s.locate(addr)
	var minor uint64
	if b := t.At(cb); b != nil {
		minor = field(&b.img, off, w)
	}
	return major<<w | minor
}

// Major returns the page's current major counter (split organization).
func (s *Store) Major(pageAddr uint64) uint64 {
	if b := s.direct.At(pageAddr / BlockSize >> s.perShift); b != nil {
		return field(&b.img, 0, 64)
	}
	return 0
}

// Increment advances the block's counter for a write-back and reports any
// overflow consequence. For split counters, a wrapping minor is left at zero
// and the overflow handler (the RSR machinery in the core package) must call
// BumpMajor to advance the page; the returned overflow identifies the page.
func (s *Store) Increment(addr uint64) (newValue uint64, ov Overflow) {
	t, cb, off, w := s.locate(addr)
	b := t.At(cb)
	if b == nil {
		b = t.Slot(cb)
	}
	img := &b.img
	if s.isMeta(addr) {
		s.Stats.DerivIncrements++
		v := (field(img, off, w) + 1) & (1<<derivBits - 1)
		setField(img, off, w, v)
		return v, Overflow{}
	}
	s.Stats.Increments++
	s.trackGrowth(b, addr)
	switch s.cfg.Org {
	case OrgSplit:
		m := field(img, off, w) + 1
		if m >= 1<<w {
			s.Stats.MinorOverflows++
			m = 0
			ov = Overflow{Kind: PageOverflow, PageAddr: s.PageAddr(addr)}
		}
		setField(img, off, w, m)
		return field(img, 0, 64)<<w | m, ov
	case OrgGlobal:
		s.global++
		if s.cfg.Bits < 64 && s.global >= 1<<uint(s.cfg.Bits) {
			s.global = 0
			s.Stats.FullOverflows++
			ov.Kind = FullOverflow
		}
		setField(img, off, w, s.global)
		return s.global, ov
	default: // OrgMono
		v := field(img, off, w) + 1
		if w < 64 && v >= 1<<w {
			v = 0
			s.Stats.FullOverflows++
			ov.Kind = FullOverflow
		}
		setField(img, off, w, v)
		return v, ov
	}
}

// BumpMajor advances a page's major counter and zeroes nothing: minors are
// reset per block as the RSR processes them (ResetMinor), matching Section
// 4.2's lazy ordering. It returns the old and new major values.
func (s *Store) BumpMajor(pageAddr uint64) (oldMajor, newMajor uint64) {
	cb := pageAddr / BlockSize >> s.perShift
	b := s.direct.At(cb)
	if b == nil {
		b = s.direct.Slot(cb)
	}
	img := &b.img
	oldMajor = field(img, 0, 64)
	setField(img, 0, 64, oldMajor+1)
	return oldMajor, oldMajor + 1
}

// ResetMinor zeroes a block's minor counter (called as each block of a
// re-encrypting page is handled).
func (s *Store) ResetMinor(addr uint64) {
	t, cb, off, w := s.locate(addr)
	if b := t.At(cb); b != nil {
		setField(&b.img, off, w, 0)
	}
}

// trackGrowth counts a write-back of the data block at addr, whose counter
// block is b.
func (s *Store) trackGrowth(b *counterBlock, addr uint64) {
	if addr >= s.cfg.Regions.DataBytes {
		return
	}
	if b.incr == nil {
		b.incr = make([]uint8, 1<<s.perShift)
	}
	i := addr / BlockSize
	c := &b.incr[i&(1<<s.perShift-1)]
	var n uint64
	if *c < wideCount {
		*c++
		n = uint64(*c)
		if n == wideCount {
			*s.wide.Slot(i) = n
		}
	} else {
		p := s.wide.At(i)
		*p++
		n = *p
	}
	if n > s.maxIncr {
		s.maxIncr = n
		s.maxBlock = addr
	}
}

// FastestCounter returns the largest per-block increment count seen and the
// block it belongs to — the "fastest-advancing counter" of Table 2.
func (s *Store) FastestCounter() (increments uint64, blockAddr uint64) {
	return s.maxIncr, s.maxBlock
}

// ForEachIncrement visits every written data block's write-back count, in
// ascending block address order. The Section 6.1 work-ratio analysis
// derives whole-memory and per-page re-encryption rates from this
// distribution.
func (s *Store) ForEachIncrement(fn func(blockAddr, count uint64)) {
	s.direct.Each(func(cb uint64, b *counterBlock) {
		for k, n := range b.incr {
			if n == 0 {
				continue
			}
			i := cb<<s.perShift + uint64(k)
			count := uint64(n)
			if n == wideCount {
				count = *s.wide.At(i)
			}
			fn(i*BlockSize, count)
		}
	})
}

// ---------------------------------------------------------------------------
// Counter cache (sequence-number cache).

// CacheLookup performs the counter-cache access for a protected block at
// cycle now. It returns the classification, the cycle at which the counter
// is available on-chip (for Hit and HalfMiss), and the counter block address
// (which the caller fetches on a Miss).
func (s *Store) CacheLookup(addr uint64, now sim.Time) (res LookupResult, readyAt sim.Time, ctrBlock uint64) {
	ctrBlock = s.CounterBlockAddr(addr)
	if s.cache.Lookup(ctrBlock, false) {
		// Lookups are not monotone in now (background RSR fetches and
		// write-backs probe at earlier timestamps). A hit before the fill
		// completes is a half miss; the first hit at or after it clears
		// the cycle, so every later hit, at any timestamp, is a plain hit.
		line := s.cache.Line(ctrBlock)
		if t := s.fillDone[line]; t > now {
			s.Stats.HalfMisses++
			return HalfMiss, t, ctrBlock
		}
		s.fillDone[line] = 0
		s.Stats.Hits++
		return Hit, now, ctrBlock
	}
	s.Stats.Misses++
	return Miss, 0, ctrBlock
}

// CacheFill installs a fetched counter block that becomes valid at ready,
// returning any dirty victim that must be written back to memory.
func (s *Store) CacheFill(ctrBlock uint64, ready sim.Time) (ev cache.Eviction, evicted bool) {
	ev, evicted = s.cache.Fill(ctrBlock, false)
	s.fillDone[s.cache.Line(ctrBlock)] = ready
	return ev, evicted
}

// CacheDirty marks a resident counter block dirty (a counter increment
// modifies it); absent blocks are ignored (the caller has already arranged
// the fetch).
func (s *Store) CacheDirty(ctrBlock uint64) { s.cache.SetDirty(ctrBlock) }
