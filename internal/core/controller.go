package core

import (
	"fmt"

	"secmem/internal/bus"
	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/counterstore"
	"secmem/internal/dram"
	"secmem/internal/engine"
	"secmem/internal/obsv"
	"secmem/internal/reenc"
	"secmem/internal/sim"
)

// Stats accumulates controller-level activity for one run.
type Stats struct {
	Fills      uint64 // demand data-block fetches
	WriteBacks uint64 // data-block write-backs

	CtrFetches    uint64 // counter-block fetches (counter cache misses)
	CtrWriteBacks uint64
	MacFetches    uint64 // Merkle node fetches
	MacWriteBacks uint64
	DerivFetches  uint64
	DerivWBs      uint64

	ReencFetches uint64 // RSR background fetches
	ReencWrites  uint64

	FullReencEvents uint64   // whole-memory re-encryptions (mono/global wrap)
	FreezeCycles    sim.Time // analytic freeze cost of those events

	// PadReads counts counter-mode decryptions; TimelyPads counts those
	// whose pad was ready when the data arrived (Figure 6's metric).
	PadReads   uint64
	TimelyPads uint64

	TamperDetected uint64 // functional-mode authentication failures
}

// Controller is the secure memory controller below the L2 cache.
type Controller struct {
	cfg config.SystemConfig
	lay Layout

	bus  *bus.Bus
	mem  *dram.DRAM
	aes  *engine.Bank
	sha  *engine.Bank
	ctrs *counterstore.Store
	rsrs *reenc.File
	l2   *cache.Cache
	// macCache, when non-nil, holds Merkle nodes instead of the L2
	// (Config.MacCacheBytes).
	macCache *cache.Cache
	// pred holds the counter-prediction state (predict.go); nil outside
	// config.EncCounterPredict.
	pred *predictor

	fn *functional

	// evictL2 routes L2 victims produced inside the controller (Merkle node
	// fills) through the memory system, which owns L1 back-invalidation:
	// it merges L1's dirty state before the victim is written back or
	// dropped, so controller-internal fills respect inclusion.
	evictL2 func(now sim.Time, ev cache.Eviction)

	// wbQueue is the write-back buffer, a FIFO drained from wbHead. It
	// serializes eviction cascades so nested fills cannot recurse
	// unboundedly, and a re-fetch of a queued block forwards from it
	// instead of reading stale DRAM. It holds a few items at a time and is
	// reused from empty after every drain. In functional mode fn.queued
	// holds each item's bytes at the same index.
	wbQueue  []wbItem
	wbHead   int
	draining bool

	// Observability state (see obs.go); all nil when uninstrumented, so
	// the hot path pays one predicted branch per hook (each hook inlines
	// as its nil check). merkleFetch counts the authentication walk's node
	// fetches per tree level, the one exported count no statistic holds.
	rec         *obsv.Recorder
	hTxn        *obsv.Histogram
	hRSR        *obsv.Histogram
	merkleFetch []uint64
	merkleTrack []string
	txnSeq      uint64

	Stats Stats
}

type wbItem struct {
	now  sim.Time
	addr uint64
	live bool // neither forwarded nor written back yet
}

// newController builds the controller and its owned substrates for a
// validated configuration. The memory system owns the L2, which holds
// Merkle nodes and which the RSRs probe for page blocks, and hands in its
// L2-eviction handler.
func newController(cfg config.SystemConfig, l2 *cache.Cache, evictL2 func(now sim.Time, ev cache.Eviction)) *Controller {
	lay := NewLayout(cfg)
	c := &Controller{
		cfg:     cfg,
		lay:     lay,
		l2:      l2,
		evictL2: evictL2,
		bus:     bus.New(),
		mem:     dram.New(lay.TotalBytes, cfg.Functional),
		aes:     engine.NewAES(cfg.AESEngines),
	}
	if cfg.Auth == config.AuthSHA1 {
		c.sha = engine.NewSHA1(cfg.SHA1Latency)
	}
	if c.needCounters() {
		c.ctrs = counterstore.New(counterstore.FromSystem(cfg, lay.Regions()))
	}
	if c.ctrs != nil && c.ctrs.Config().Org == counterstore.OrgSplit {
		// Split-organized counters (counter-mode split encryption, or GCM
		// authentication's counters) need the RSR machinery for minor-
		// counter overflow handling.
		c.rsrs = reenc.NewFile(cfg.RSRs, cfg.PageBlocks)
	}
	if mc, ok := cfg.MacCacheConfig(); ok && cfg.Auth != config.AuthNone {
		c.macCache = cache.New(mc)
	}
	if cfg.Enc == config.EncCounterPredict {
		c.pred = &predictor{ctr: make(map[uint64]uint64), base: make(map[uint64]uint64)}
	}
	if cfg.Functional {
		c.fn = newFunctional(c)
	}
	return c
}

// nodeCache returns the cache holding Merkle tree nodes: the dedicated MAC
// cache when configured, otherwise the shared L2 (the default design).
func (c *Controller) nodeCache() *cache.Cache {
	if c.macCache != nil {
		return c.macCache
	}
	return c.l2
}

// onNodeVictim handles an eviction from the MAC-node cache. Dedicated-cache
// victims never involve L1 (metadata is not cached there); shared-L2
// victims go through the memory system.
func (c *Controller) onNodeVictim(now sim.Time, ev cache.Eviction) {
	if c.macCache == nil {
		c.evictL2(now, ev)
		return
	}
	if ev.Dirty {
		c.enqueueWB(now, ev.Addr)
	}
}

// fillNode installs Merkle node mac in the node cache, dirty for a
// write-back-buffer forward, and hands any victim to onNodeVictim at now.
// In functional mode the node's bytes, staged in fn.node, go into its line
// first: the victim's handler can update the node (it may be the victim's
// parent) and must find it there.
func (c *Controller) fillNode(now sim.Time, mac uint64, dirty bool) {
	nc := c.nodeCache()
	ev, evicted := nc.Fill(mac, dirty)
	if c.fn != nil {
		c.fn.install(nc, mac, &c.fn.node)
	}
	if evicted {
		c.onNodeVictim(now, ev)
	}
}

// MacCache exposes the dedicated MAC cache for statistics (nil when tree
// nodes share the L2).
func (c *Controller) MacCache() *cache.Cache { return c.macCache }

// needCounters reports whether any per-block counters are maintained:
// counter-mode encryption or GCM authentication (which consumes counters
// even without encryption, per Section 6.2).
func (c *Controller) needCounters() bool {
	return c.cfg.Enc.UsesCounters() || c.cfg.Auth == config.AuthGCM
}

// Layout exposes the address map.
func (c *Controller) Layout() Layout { return c.lay }

// Counters exposes the counter store for statistics (nil if unused).
func (c *Controller) Counters() *counterstore.Store { return c.ctrs }

// RSRs exposes the re-encryption register file (nil unless split mode).
func (c *Controller) RSRs() *reenc.File { return c.rsrs }

// Bus exposes the memory bus for statistics.
func (c *Controller) Bus() *bus.Bus { return c.bus }

// DRAM exposes the memory device (functional examples attach attackers).
func (c *Controller) DRAM() *dram.DRAM { return c.mem }

// Tampers returns the functional-mode tamper log.
func (c *Controller) Tampers() []Tamper {
	if c.fn == nil {
		return nil
	}
	return c.fn.tampers
}

// fetch reserves bus and DRAM service for one block read arriving at now
// and returns the data-arrival cycle.
func (c *Controller) fetch(now sim.Time) sim.Time {
	start := c.bus.Transfer(now, BlockSize)
	return c.mem.AccessRead(start)
}

// fetchWide models a transfer of block plus piggybacked metadata (the
// counter-prediction baseline ships a 64-bit counter with each block).
func (c *Controller) fetchWide(now sim.Time, extraBytes int) sim.Time {
	start := c.bus.Transfer(now, BlockSize+extraBytes)
	return c.mem.AccessRead(start)
}

// store reserves bus and DRAM service for one posted block write.
func (c *Controller) store(now sim.Time) sim.Time {
	start := c.bus.Transfer(now, BlockSize)
	return c.mem.AccessWrite(start)
}

// sncLatency is the counter-cache hit latency.
func (c *Controller) sncLatency() sim.Time { return c.cfg.CounterCache.LatencyCycles }

// counterReady ensures the counter for a protected block is on-chip,
// fetching (and, per Section 4.3, authenticating) its counter block on a
// miss. It returns when the counter value is usable for pad generation and
// when its authentication completes (zero when none was needed).
func (c *Controller) counterReady(now sim.Time, addr uint64) (ready, authDone sim.Time) {
	res, readyAt, ctrBlk := c.ctrs.CacheLookup(addr, now)
	switch res {
	case counterstore.Hit:
		return now + c.sncLatency(), 0
	case counterstore.HalfMiss:
		return readyAt, 0
	}
	// Miss: fetch the counter block, or forward it from the write-back
	// buffer if its eviction is still queued (the on-chip values were never
	// discarded, so DRAM would be stale).
	if c.clearWB(ctrBlk) >= 0 {
		ready := now + c.sncLatency()
		if ev, evicted := c.ctrs.CacheFill(ctrBlk, ready); evicted && ev.Dirty {
			c.enqueueWB(ready, ev.Addr)
		}
		c.ctrs.CacheDirty(ctrBlk)
		return ready, 0
	}
	switch c.lay.RegionOf(ctrBlk) {
	case RegionDeriv:
		c.Stats.DerivFetches++
	default:
		c.Stats.CtrFetches++
	}
	issueAt := now + c.sncLatency()
	arrive := c.fetch(issueAt)
	c.rec.Span("ctr", "fetch", uint64(issueAt), uint64(arrive))
	if ev, evicted := c.ctrs.CacheFill(ctrBlk, arrive); evicted && ev.Dirty {
		c.enqueueWB(arrive, ev.Addr)
	}
	// Install the fetched counters before the timing walk below: its Merkle
	// node fills can evict a dirty data block whose write-back bumps a
	// counter in this block, and unpacking the memory image after that
	// would roll the bump back.
	if c.fn != nil {
		c.fn.onCounterFill(now, ctrBlk)
	}
	// Authenticate the fetched counters before they are trusted for
	// encryption (the counter-replay fix). Derivative counter blocks live
	// outside the tree and are only transitively protected.
	if c.cfg.AuthenticateCounters && c.cfg.Auth != config.AuthNone && c.inTree(ctrBlk) {
		authDone = c.authChain(now, ctrBlk, arrive)
	}
	return arrive, authDone
}

// inTree reports whether a block participates in the Merkle tree — as a
// leaf (data or direct counters) or as a MAC node. Only derivative-counter
// blocks fall outside.
func (c *Controller) inTree(addr uint64) bool {
	return c.lay.Geo != nil && addr < c.lay.Geo.End()
}

// ReadBlock services an L2 demand miss for a data block presented at now.
// It returns when decrypted data is ready for use, when its authentication
// (own MAC, Merkle chain, and any counter authentication) completes, and
// whether the block was forwarded from the write-back buffer — in which
// case the caller must re-install it dirty, since memory was never updated.
func (c *Controller) ReadBlock(now sim.Time, addr uint64) (dataReady, authDone sim.Time, forwarded bool) {
	if i := c.clearWB(addr); i >= 0 {
		// Write-back buffer forward: plaintext never left the chip.
		if c.fn != nil {
			c.fn.fill = c.fn.queued[i]
		}
		t := now + 1
		return t, t, true
	}
	c.Stats.Fills++
	var txn uint64
	if c.rec != nil {
		c.txnSeq++
		txn = c.txnSeq
		c.rec.Begin("txn", "read", txn, uint64(now))
	}
	var arrive sim.Time
	if c.pred != nil {
		arrive = c.fetchWide(now, CounterBytes)
	} else {
		arrive = c.fetch(now)
	}

	var ctrReady, ctrAuth sim.Time
	if c.needCounters() {
		ctrReady, ctrAuth = c.counterReady(now, addr)
	}

	switch c.cfg.Enc {
	case config.EncNone:
		dataReady = arrive
	case config.EncDirect:
		// Decryption cannot start until the ciphertext arrives: the
		// Figure 1(a) serialization the counter modes exist to avoid.
		dataReady = c.aes.GenerateBlockPads(arrive)
	case config.EncCounterPredict:
		dataReady = c.predictRead(now, arrive, addr)
	default:
		// Counter mode: pad generation overlaps the fetch (Figure 1(b));
		// a counter miss delays the pad, not the fetch (Figure 1(c)).
		padDone := c.aes.GenerateBlockPads(ctrReady)
		c.Stats.PadReads++
		if padDone <= arrive {
			c.Stats.TimelyPads++
		}
		dataReady = max(arrive, padDone) + 1
	}

	if c.cfg.Auth != config.AuthNone {
		authDone = max(c.authChain(now, addr, arrive), ctrAuth)
	} else {
		authDone = dataReady
	}
	if c.fn != nil {
		c.fn.onDataFill(now, addr)
	}
	end := max(dataReady, authDone)
	c.hTxn.Observe(uint64(end - now))
	if c.rec != nil {
		c.rec.End("txn", "read", txn, uint64(end))
	}
	c.drain()
	return dataReady, authDone, false
}

// macCheckDone returns when the MAC of a fetched block, whose content
// arrives at arrive, has been computed and compared. GCM overlaps the
// authentication-pad AES with the fetch and only adds the GHASH tail after
// arrival; SHA-1 cannot start until the block is complete.
func (c *Controller) macCheckDone(now sim.Time, addr uint64, arrive sim.Time) sim.Time {
	switch c.cfg.Auth {
	case config.AuthGCM:
		ctrReady, _ := c.counterReady(now, addr)
		padDone := c.aes.Issue(ctrReady)
		return max(arrive, padDone) + engine.GCMAuthTail(BlockSize/16)
	case config.AuthSHA1:
		return c.sha.Issue(arrive)
	default:
		return arrive
	}
}

// authChain authenticates a fetched in-tree block: its own MAC plus the
// Merkle walk up to the first on-chip node (or the root register). With
// ParallelAuth all missing levels are fetched concurrently (Section 3);
// otherwise each level's fetch waits for the previous level's MAC check.
func (c *Controller) authChain(now sim.Time, addr uint64, arrive sim.Time) sim.Time {
	if !c.inTree(addr) {
		return arrive
	}
	done := c.macCheckDone(now, addr, arrive)
	c.rec.Span("mac", "check", uint64(arrive), uint64(done))
	prevDone := done
	cur := addr
	for {
		mac, _, ok := c.lay.Geo.Parent(cur)
		if !ok {
			break // parent MAC is the on-chip root register
		}
		nc := c.nodeCache()
		if nc.Contains(mac) {
			// Trusted on-chip node terminates the walk; refresh its LRU.
			nc.Lookup(mac, false)
			break
		}
		issueAt := now
		if !c.cfg.ParallelAuth {
			issueAt = prevDone
		}
		if i := c.clearWB(mac); i >= 0 {
			// Write-back buffer forward: trusted dirty copy, no fetch.
			if c.fn != nil {
				c.fn.node = c.fn.queued[i]
			}
			c.fillNode(issueAt, mac, true)
			break
		}
		c.Stats.MacFetches++
		nodeArrive := c.fetch(issueAt)
		if c.fn != nil {
			c.fn.onMacFill(now, mac)
		}
		c.fillNode(nodeArrive, mac, false)
		nodeDone := c.macCheckDone(issueAt, mac, nodeArrive)
		c.noteMerkleNode(mac, issueAt, nodeArrive, nodeDone)
		if nodeDone > done {
			done = nodeDone
		}
		prevDone = nodeDone
		cur = mac
	}
	return done
}

// enqueueWB queues a dirty block's write-back. In functional mode the item
// takes the bytes in fn.victim, where the block's line left them.
func (c *Controller) enqueueWB(now sim.Time, addr uint64) {
	c.wbQueue = append(c.wbQueue, wbItem{now: now, addr: addr, live: true})
	if c.fn != nil {
		c.fn.queued = append(c.fn.queued, c.fn.victim)
	}
}

// clearWB marks every live copy of addr still queued as done, returning
// the index of the newest, or -1 if there was none. drain takes a block's
// copies this way before writing it back. A fill of a block whose
// write-back is still queued takes them too: that is a write-back buffer
// hit, served from the buffer (squashing the write-back), and the block
// stays dirty on-chip with the newest copy's bytes.
func (c *Controller) clearWB(addr uint64) (newest int) {
	newest = -1
	for i := c.wbHead; i < len(c.wbQueue); i++ {
		if it := &c.wbQueue[i]; it.live && it.addr == addr {
			it.live = false
			newest = i
		}
	}
	return newest
}

// drain processes queued write-backs. Processing one write-back can fetch
// and fill further blocks, evicting more dirty victims onto the queue; the
// loop is bounded because every iteration writes one dirty block out and
// the dirty population is bounded by the cache sizes.
//
// A block re-installed dirty while its write-back is queued can be queued
// twice. It is written back once, at its first copy's cycle, with its
// newest copy's bytes, if any copy is still live; a forward squashes only
// the copies already queued.
func (c *Controller) drain() {
	if c.draining {
		return
	}
	c.draining = true
	defer func() { c.draining = false }()
	for guard := 0; c.wbHead < len(c.wbQueue); guard++ {
		if guard > 1<<20 {
			panic("core: write-back cascade did not terminate")
		}
		item := c.wbQueue[c.wbHead]
		newest := c.clearWB(item.addr) // -1: squashed by a forward
		c.wbHead++
		if newest < 0 {
			continue
		}
		if c.fn != nil {
			c.fn.leaving = newest
		}
		c.writeBackAny(item.now, item.addr)
	}
	c.wbQueue = c.wbQueue[:0]
	c.wbHead = 0
	if c.fn != nil {
		c.fn.queued = c.fn.queued[:0]
		c.fn.leaving = -1
	}
}

// HandleEviction is the memory system's entry point for dirty L2 evictions.
func (c *Controller) HandleEviction(now sim.Time, addr uint64) {
	c.enqueueWB(now, addr)
	c.drain()
}

// writeBackAny dispatches a write-back by region.
func (c *Controller) writeBackAny(now sim.Time, addr uint64) {
	switch c.lay.RegionOf(addr) {
	case RegionData:
		c.writeBackData(now, addr)
	default:
		c.writeBackMeta(now, addr)
	}
}

func (c *Controller) String() string {
	return fmt.Sprintf("Controller(%s, req=%s, mac=%db)", c.cfg.SchemeName(), c.cfg.Req, c.cfg.MACBits)
}
