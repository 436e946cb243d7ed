// Package counterstore implements the counter organizations compared by the
// paper — split counters (the contribution), monolithic per-block counters
// of 8/16/32/64 bits (prior work), and a globally incremented counter — plus
// the on-chip counter cache (sequence-number cache) through which all of
// them are accessed, and the growth-rate accounting behind Table 2.
//
// The store always maintains functional counter values (they are needed for
// seed construction, overflow detection, and growth statistics even in
// timing-only runs). It also manages derivative counters for Merkle-tree MAC
// blocks: those share the counter cache but live in their own region and are
// 64-bit, so they never overflow (Section 4.3).
package counterstore

import (
	"fmt"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// BlockSize is the cache/memory block size in bytes.
const BlockSize = 64

// Derivative counters (Section 4.3) are 16 bits each, packed 32 to a
// block: wide enough that no metadata block plausibly wraps within a run,
// dense enough that the counter cache covers 2 KB of metadata per line.
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
	// DirectBase is the base of the direct-counter region.
	DirectBase uint64
	// MacBase is the base of the Merkle MAC region. Everything at or above
	// DirectBase (counter blocks and MAC blocks) is metadata covered by
	// derivative counters.
	MacBase uint64
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

// Store holds all counter state for one simulated machine.
type Store struct {
	cfg Config

	// split state
	minors map[uint64]uint64 // data block addr -> minor value
	majors map[uint64]uint64 // page addr -> major value

	// mono/global/derivative state
	values map[uint64]uint64 // block addr -> counter value
	global uint64

	// growth accounting (Table 2): per-data-block increment counts.
	incr     map[uint64]uint64
	maxIncr  uint64
	maxBlock uint64

	cache *cache.Cache
	// fillDone holds, per counter-cache line, the cycle at which the fetch
	// that filled the line completes, or zero once a hit has seen it pass.
	// A refill overwrites it, so it belongs to the block resident there.
	fillDone []sim.Time

	// Observability handles; nil-safe.
	mHit      *obsv.Counter
	mHalfMiss *obsv.Counter
	mMiss     *obsv.Counter
	mIncr     *obsv.Counter
	mOverflow *obsv.Counter

	Stats Stats
}

// Instrument registers the counter cache's metrics in reg (may be nil).
func (s *Store) Instrument(reg *obsv.Registry) {
	s.mHit = reg.Counter("ctrcache.hit")
	s.mHalfMiss = reg.Counter("ctrcache.halfmiss")
	s.mMiss = reg.Counter("ctrcache.miss")
	s.mIncr = reg.Counter("ctrcache.incr")
	s.mOverflow = reg.Counter("ctrcache.overflow")
}

// New builds a store.
func New(cfg Config) *Store {
	if cfg.Org == OrgSplit {
		if cfg.MinorBits < 1 || cfg.MinorBits > 16 || cfg.PageBlocks <= 0 {
			panic(fmt.Sprintf("counterstore: bad split geometry %+v", cfg))
		}
	} else if cfg.Bits != 8 && cfg.Bits != 16 && cfg.Bits != 32 && cfg.Bits != 64 {
		panic(fmt.Sprintf("counterstore: bad counter width %d", cfg.Bits))
	}
	s := &Store{
		cfg:    cfg,
		minors: make(map[uint64]uint64),
		majors: make(map[uint64]uint64),
		values: make(map[uint64]uint64),
		incr:   make(map[uint64]uint64),
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
// depending on the organization; MAC blocks map into the derivative-counter
// region at 64 bits per counter.
func (s *Store) CounterBlockAddr(addr uint64) uint64 {
	if s.isMeta(addr) {
		idx := (addr - s.cfg.Regions.DirectBase) / BlockSize
		return s.cfg.Regions.DerivBase + idx/derivPerBlock*BlockSize
	}
	idx := addr / BlockSize
	switch s.cfg.Org {
	case OrgSplit:
		// One counter block per encryption page: the major plus all minors.
		return s.cfg.Regions.DirectBase + idx/uint64(s.cfg.PageBlocks)*BlockSize
	default:
		perBlock := uint64(512 / s.counterBits())
		return s.cfg.Regions.DirectBase + idx/perBlock*BlockSize
	}
}

func (s *Store) counterBits() int {
	if s.cfg.Org == OrgGlobal {
		return 64 // stored per-block values are full width for decryption
	}
	return s.cfg.Bits
}

// Value returns the current counter value for a protected block, as used in
// the encryption/authentication seed. Split counters concatenate major and
// minor (major << minorBits | minor).
func (s *Store) Value(addr uint64) uint64 {
	if s.isMeta(addr) {
		return s.values[addr]
	}
	switch s.cfg.Org {
	case OrgSplit:
		return s.majors[s.PageAddr(addr)]<<uint(s.cfg.MinorBits) | s.minors[addr]
	default:
		return s.values[addr]
	}
}

// ValueWithMajor returns a split-counter value under an explicit major (the
// RSR uses the page's old major to decrypt blocks during re-encryption).
func (s *Store) ValueWithMajor(addr, major uint64) uint64 {
	return major<<uint(s.cfg.MinorBits) | s.minors[addr]
}

// Major returns the page's current major counter.
func (s *Store) Major(pageAddr uint64) uint64 { return s.majors[pageAddr] }

// Increment advances the block's counter for a write-back and reports any
// overflow consequence. For split counters, a wrapping minor is left at zero
// and the overflow handler (the RSR machinery in the core package) must call
// BumpMajor to advance the page; the returned overflow identifies the page.
func (s *Store) Increment(addr uint64) (newValue uint64, ov Overflow) {
	if s.isMeta(addr) {
		s.values[addr]++
		s.Stats.DerivIncrements++
		return s.values[addr], Overflow{}
	}
	s.Stats.Increments++
	s.mIncr.Inc()
	s.trackGrowth(addr)
	switch s.cfg.Org {
	case OrgSplit:
		m := s.minors[addr] + 1
		if m >= 1<<uint(s.cfg.MinorBits) {
			s.Stats.MinorOverflows++
			s.mOverflow.Inc()
			s.minors[addr] = 0
			return s.Value(addr), Overflow{Kind: PageOverflow, PageAddr: s.PageAddr(addr)}
		}
		s.minors[addr] = m
		return s.Value(addr), Overflow{}
	case OrgGlobal:
		s.global++
		var wrapped bool
		if s.cfg.Bits < 64 && s.global >= 1<<uint(s.cfg.Bits) {
			s.global = 0
			wrapped = true
			s.Stats.FullOverflows++
			s.mOverflow.Inc()
		}
		s.values[addr] = s.global
		if wrapped {
			return s.global, Overflow{Kind: FullOverflow}
		}
		return s.global, Overflow{}
	default: // OrgMono
		v := s.values[addr] + 1
		if s.cfg.Bits < 64 && v >= 1<<uint(s.cfg.Bits) {
			s.values[addr] = 0
			s.Stats.FullOverflows++
			s.mOverflow.Inc()
			return 0, Overflow{Kind: FullOverflow}
		}
		s.values[addr] = v
		return v, Overflow{}
	}
}

// BumpMajor advances a page's major counter and zeroes nothing: minors are
// reset per block as the RSR processes them (ResetMinor), matching Section
// 4.2's lazy ordering. It returns the old and new major values.
func (s *Store) BumpMajor(pageAddr uint64) (oldMajor, newMajor uint64) {
	oldMajor = s.majors[pageAddr]
	newMajor = oldMajor + 1
	s.majors[pageAddr] = newMajor
	return oldMajor, newMajor
}

// ResetMinor zeroes a block's minor counter (called as each block of a
// re-encrypting page is handled).
func (s *Store) ResetMinor(addr uint64) { s.minors[addr] = 0 }

// ResetAll zeroes every counter; whole-memory re-encryption (monolithic
// overflow key change) starts all counters over under the new key.
func (s *Store) ResetAll() {
	clear(s.minors)
	clear(s.majors)
	clear(s.values)
	s.global = 0
}

func (s *Store) trackGrowth(addr uint64) {
	if addr >= s.cfg.Regions.DataBytes {
		return
	}
	n := s.incr[addr] + 1
	s.incr[addr] = n
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

// TotalIncrements returns total data write-backs, the global counter's
// growth (Table 2's Global32b column).
func (s *Store) TotalIncrements() uint64 { return s.Stats.Increments }

// ForEachIncrement visits every data block's write-back count. The Section
// 6.1 work-ratio analysis derives whole-memory and per-page re-encryption
// rates from this distribution.
func (s *Store) ForEachIncrement(fn func(blockAddr, count uint64)) {
	for a, n := range s.incr {
		fn(a, n)
	}
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
			s.mHalfMiss.Inc()
			return HalfMiss, t, ctrBlock
		}
		s.fillDone[line] = 0
		s.Stats.Hits++
		s.mHit.Inc()
		return Hit, now, ctrBlock
	}
	s.Stats.Misses++
	s.mMiss.Inc()
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

// CacheContains reports counter-cache residence without side effects.
func (s *Store) CacheContains(ctrBlock uint64) bool {
	return s.cache.Contains(ctrBlock)
}
