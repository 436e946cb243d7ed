package core

import (
	"crypto/subtle"
	"fmt"
	"slices"

	"secmem/internal/aescipher"
	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/gcmmode"
	"secmem/internal/merkle"
	"secmem/internal/sha1sum"
	"secmem/internal/sim"
)

// Tamper records one detected authentication failure.
type Tamper struct {
	Cycle  sim.Time
	Addr   uint64
	Region Region
}

// functional is the byte-moving half of the controller. Every hook is
// invoked from the corresponding timing path, so the functional view of
// what is on-chip always matches the cache models.
//
// On-chip bytes live in slots beside the caches, one per line, found
// through cache.Line: l2Bytes holds each resident data block's plaintext
// and, when Merkle nodes share the L2, each resident node; macBytes holds
// the nodes of a dedicated MAC cache. A dirty block that leaves its line
// takes its bytes into the write-back buffer (queued), where it is still
// on-chip until drain writes it back. Counter blocks live in the counter
// store's tables and are (de)serialized at the edge.
type functional struct {
	c *Controller
	//secmemlint:secret — AES memory-encryption key (on-chip only)
	key [16]byte
	//secmemlint:secret — SHA-1 MAC key for the AuthSHA1 configuration
	shaKey []byte
	epoch  byte
	pads   *gcmmode.PadGen
	direct *aescipher.Cipher

	// The slot arrays are allocated with the first fill, so a machine that
	// is built and never run costs no more than a timing-only one.
	//
	//secmemlint:secret — plaintext cache-block contents; must never leave the chip unencrypted
	l2Bytes  [][BlockSize]byte
	macBytes [][BlockSize]byte

	// queued holds the bytes of each write-back buffer item, at its index
	// in c.wbQueue: what the block's line held when it left. A counter
	// block's entry is unused; its write-back packs the counter store's
	// values. leaving is the index of the item drain is writing back, whose
	// bytes count as on-chip until the write-back is done, or -1.
	//
	//secmemlint:secret — plaintext of dirty data blocks on their way off-chip
	queued  [][BlockSize]byte
	leaving int

	// fill stages a data block's plaintext from its fetch in ReadBlock to
	// its L2 fill in MemSystem.Access; node stages a Merkle node from its
	// fetch to its fill. They are separate because ReadBlock drains the
	// write-back buffer in between, which can fill nodes. victim holds the
	// bytes of the line a fill or an invalidation just freed, until the
	// victim's handler queues them.
	//
	//secmemlint:secret — plaintext of the data block being filled
	fill [BlockSize]byte
	node [BlockSize]byte
	//secmemlint:secret — plaintext of the data block being evicted
	victim [BlockSize]byte

	root    merkle.Root
	tampers []Tamper
}

func newFunctional(c *Controller) *functional {
	f := &functional{c: c, leaving: -1}
	// A fixed deterministic key keeps runs reproducible; key management is
	// explicitly out of the paper's scope (Section 4.4).
	for i := range f.key {
		f.key[i] = byte(i*67 + 13)
	}
	f.shaKey = []byte("secmem-sha1-authentication-key!!")
	f.rekey()
	return f
}

// rekey derives the pad generator for the current key epoch. A whole-memory
// re-encryption changes the epoch, which flows into both initialization
// vectors, giving the "new AES key" effect of prior-work counter overflow
// handling.
func (f *functional) rekey() {
	f.pads = gcmmode.NewAES128PadGen(f.key[:], 2*f.epoch, 2*f.epoch+1)
	f.direct = aescipher.MustNew(f.key[:])
}

func (f *functional) tamper(now sim.Time, addr uint64) {
	f.tampers = append(f.tampers, Tamper{Cycle: now, Addr: addr, Region: f.c.lay.RegionOf(addr)})
	f.c.Stats.TamperDetected++
	f.c.rec.Instant("txn", "tamper", uint64(now))
}

// counterFor returns the counter value bound into a block's MAC and pad.
func (f *functional) counterFor(addr uint64) uint64 {
	switch {
	case f.c.pred != nil:
		return f.c.pred.ctr[addr]
	case f.c.ctrs == nil:
		return 0
	}
	return f.c.ctrs.Value(addr)
}

// encrypt produces the memory image of a data block under counter ctr.
//
//secmemlint:secret src
func (f *functional) encrypt(dst, src []byte, addr, ctr uint64) {
	switch f.c.cfg.Enc {
	case config.EncNone:
		copy(dst, src[:BlockSize])
	case config.EncDirect:
		for i := 0; i < BlockSize; i += 16 {
			f.direct.Encrypt(dst[i:], src[i:])
		}
	default:
		f.pads.EncryptBlock(dst, src, addr, ctr)
	}
}

// decrypt inverts encrypt.
//
//secmemlint:secret out:dst
func (f *functional) decrypt(dst, src []byte, addr, ctr uint64) {
	switch f.c.cfg.Enc {
	case config.EncNone:
		copy(dst, src[:BlockSize])
	case config.EncDirect:
		for i := 0; i < BlockSize; i += 16 {
			f.direct.Decrypt(dst[i:], src[i:])
		}
	default:
		f.pads.EncryptBlock(dst, src, addr, ctr) // counter mode is symmetric
	}
}

// computeMac fills mac with the authentication code for a block's memory
// image and returns its length in bytes (0 when authentication is off).
// The out-array form keeps per-transfer MAC generation off the heap on the
// GCM path — this is called for every fill, write-back, and tree walk step.
func (f *functional) computeMac(addr uint64, content []byte, ctr uint64, mac *[16]byte) int {
	switch f.c.cfg.Auth {
	case config.AuthGCM:
		tag, n := f.pads.MAC(content, addr, ctr, f.c.cfg.MACBits)
		*mac = tag
		return n
	case config.AuthSHA1:
		return copy(mac[:], sha1sum.MAC(f.shaKey, addr, ctr, content, f.c.cfg.MACBits))
	default:
		return 0
	}
}

// slots returns the slot array beside cache c, the L2 or the MAC cache,
// allocating both with the first fill.
func (f *functional) slots(c *cache.Cache) [][BlockSize]byte {
	if len(f.l2Bytes) == 0 {
		f.l2Bytes = make([][BlockSize]byte, f.c.l2.Lines())
		if f.c.macCache != nil {
			f.macBytes = make([][BlockSize]byte, f.c.macCache.Lines())
		}
	}
	if c == f.c.macCache {
		return f.macBytes
	}
	return f.l2Bytes
}

// resident returns the slot of block addr in cache c, or nil if the block
// is not resident there.
func (f *functional) resident(c *cache.Cache, addr uint64) *[BlockSize]byte {
	if i := c.Line(addr); i >= 0 {
		return &f.slots(c)[i]
	}
	return nil
}

// onChip returns the on-chip bytes of block addr, which cache c holds when
// it is resident: its slot there, else its newest queued copy (a block
// queued twice left the chip twice, and the later bytes are current), else
// the copy drain is writing back. It returns nil for a block off-chip.
func (f *functional) onChip(c *cache.Cache, addr uint64) *[BlockSize]byte {
	if s := f.resident(c, addr); s != nil {
		return s
	}
	q := f.c.wbQueue
	for i := len(q) - 1; i >= f.c.wbHead; i-- {
		if q[i].live && q[i].addr == addr {
			return &f.queued[i]
		}
	}
	if i := f.leaving; i >= 0 && q[i].addr == addr {
		return &f.queued[i]
	}
	return nil
}

// install puts src into the line that a fill of addr into cache c has just
// taken, first saving the line's previous bytes in victim: when the fill
// evicted a block, its handler runs after the install and queues them.
func (f *functional) install(c *cache.Cache, addr uint64, src *[BlockSize]byte) {
	s := &f.slots(c)[c.Line(addr)]
	f.victim = *s
	*s = *src
}

// installFill installs the data block staged in fill into its L2 line.
func (f *functional) installFill(addr uint64) { f.install(f.c.l2, addr, &f.fill) }

// saveVictim saves the bytes of block addr's line in cache c, if it is
// resident, as the next victim's, before an Invalidate frees the line.
func (f *functional) saveVictim(c *cache.Cache, addr uint64) {
	if s := f.resident(c, addr); s != nil {
		f.victim = *s
	}
}

// nodeContent returns a Merkle node's bytes, preferring the trusted on-chip
// copy, and reports whether the copy was on-chip.
func (f *functional) nodeContent(addr uint64, buf *[BlockSize]byte) (onChip bool) {
	if s := f.onChip(f.c.nodeCache(), addr); s != nil {
		*buf = *s
		return true
	}
	f.c.mem.ReadBlock(addr, buf[:])
	return false
}

// verify checks a fetched block's MAC against its parent, walking up the
// tree through off-chip parents until an on-chip node or the root register.
// Unwritten blocks (never stored by this run) are skipped: their MACs were
// never initialized, exactly like real memory before first use.
func (f *functional) verify(now sim.Time, addr uint64, content []byte, ctr uint64) bool {
	if !f.c.mem.HasBlock(addr) && isZero(content) {
		return true
	}
	var mac [16]byte
	n := f.computeMac(addr, content, ctr, &mac)
	parent, slot, ok := f.c.lay.Geo.Parent(addr)
	if !ok {
		want, set := f.root.Get()
		if !set {
			return true
		}
		if subtle.ConstantTimeCompare(mac[:n], want) != 1 {
			f.tamper(now, addr)
			return false
		}
		return true
	}
	var pbuf [BlockSize]byte
	onChip := f.nodeContent(parent, &pbuf)
	if !onChip {
		// The parent itself came from untrusted memory: verify it first.
		if !f.verify(now, parent, pbuf[:], f.counterFor(parent)) {
			return false
		}
	}
	lo, hi := f.c.lay.Geo.MacOffset(slot)
	if subtle.ConstantTimeCompare(mac[:n], pbuf[lo:hi]) != 1 {
		f.tamper(now, addr)
		return false
	}
	return true
}

func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- fill hooks -----------------------------------------------------------

// onDataFill fetches, verifies and decrypts a data block into fill.
func (f *functional) onDataFill(now sim.Time, addr uint64) {
	var ct [BlockSize]byte
	f.c.mem.ReadBlock(addr, ct[:])
	if f.c.cfg.Auth != config.AuthNone {
		f.verify(now, addr, ct[:], f.counterFor(addr)) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	}
	f.decrypt(f.fill[:], ct[:], addr, f.counterFor(addr))
}

// onMacFill fetches and verifies a Merkle node into node.
func (f *functional) onMacFill(now sim.Time, addr uint64) {
	f.c.mem.ReadBlock(addr, f.node[:])
	f.verify(now, addr, f.node[:], f.counterFor(addr)) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
}

func (f *functional) onCounterFill(now sim.Time, ctrBlk uint64) {
	var img [BlockSize]byte
	f.c.mem.ReadBlock(ctrBlk, img[:])
	if f.c.cfg.AuthenticateCounters && f.c.cfg.Auth != config.AuthNone && f.c.inTree(ctrBlk) {
		f.verify(now, ctrBlk, img[:], f.counterFor(ctrBlk)) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	}
	// The hardware trusts what memory says: install the fetched counters.
	// Without counter authentication this is where a replayed counter block
	// silently rolls counters back — the Section 4.3 vulnerability.
	f.c.ctrs.UnpackBlock(ctrBlk, img[:])
}

// --- write-back hooks ------------------------------------------------------

// leavingBytes returns the bytes of block addr that drain is writing back.
func (f *functional) leavingBytes(addr uint64) *[BlockSize]byte {
	if i := f.leaving; i >= 0 && f.c.wbQueue[i].addr == addr {
		return &f.queued[i]
	}
	// Every block written back was queued with the bytes of the line it
	// left; writing anything else would corrupt memory silently.
	panic(fmt.Sprintf("core: block %#x is written back without its queued bytes", addr))
}

func (f *functional) onDataWriteBack(now sim.Time, addr uint64) {
	var ct [BlockSize]byte
	f.encrypt(ct[:], f.leavingBytes(addr)[:], addr, f.counterFor(addr))
	f.c.mem.WriteBlock(addr, ct[:])
}

func (f *functional) onMetaWriteBack(now sim.Time, addr uint64) {
	switch f.c.lay.RegionOf(addr) {
	case RegionMac:
		f.c.mem.WriteBlock(addr, f.leavingBytes(addr)[:])
	default: // counter or derivative block: serialize current values
		img := f.c.ctrs.PackBlock(addr)
		f.c.mem.WriteBlock(addr, img[:])
	}
}

// updateParentSlot recomputes the MAC of the block just written at addr
// (reading its fresh memory image) and stores it into the parent node's
// on-chip copy, which the timing path has just ensured is resident.
func (f *functional) updateParentSlot(addr uint64) {
	var content [BlockSize]byte
	f.c.mem.ReadBlock(addr, content[:])
	var mac [16]byte
	n := f.computeMac(addr, content[:], f.counterFor(addr), &mac)
	parent, slot, ok := f.c.lay.Geo.Parent(addr)
	if !ok {
		f.root.Set(mac[:n])
		return
	}
	node := f.resident(f.c.nodeCache(), parent)
	if node == nil {
		// updateParentMac found the parent on-chip or fetched and verified
		// it; adopting memory's copy here would trust unverified bytes.
		panic(fmt.Sprintf("core: parent node %#x of %#x has no on-chip copy", parent, addr))
	}
	lo, hi := f.c.lay.Geo.MacOffset(slot)
	copy(node[lo:hi], mac[:n])
}

// updateRoot refreshes the root register after the top tree node was
// written back.
func (f *functional) updateRoot(addr uint64) {
	var content [BlockSize]byte
	f.c.mem.ReadBlock(addr, content[:])
	var mac [16]byte
	n := f.computeMac(addr, content[:], f.counterFor(addr), &mac)
	f.root.Set(mac[:n])
}

// onReencBlock moves one off-chip block of a re-encrypting page from the
// old major counter to the new one. Called before the minor is reset, so
// the old counter is still reconstructible.
func (f *functional) onReencBlock(now sim.Time, blk, oldMajor uint64) {
	var ct, pt [BlockSize]byte
	f.c.mem.ReadBlock(blk, ct[:])
	oldCtr := f.c.ctrs.ValueWithMajor(blk, oldMajor)
	if f.c.cfg.Auth != config.AuthNone {
		f.verify(now, blk, ct[:], oldCtr) //secmemlint:ignore verifydrop verify records the tamper; re-encryption proceeds to observe post-tamper behavior
	}
	f.decrypt(pt[:], ct[:], blk, oldCtr)
	// New counter: the already-bumped major with a zeroed minor.
	page := f.c.ctrs.PageAddr(blk)
	newCtr := f.c.ctrs.ValueWithMajor(blk, f.c.ctrs.Major(page))
	newCtr &^= (1 << uint(f.c.cfg.MinorBits)) - 1
	var ct2 [BlockSize]byte
	f.encrypt(ct2[:], pt[:], blk, newCtr)
	f.c.mem.WriteBlock(blk, ct2[:])
}

// reencryptAll re-encrypts the entire backing store under a new key epoch
// (monolithic/global counter wrap) and rebuilds the Merkle tree, since
// every MAC is keyed by the epoch too.
func (f *functional) reencryptAll(now sim.Time) {
	// Phase 1: recover plaintext of every written data block under the old
	// epoch (on-chip copies are already plaintext).
	type rec struct {
		addr uint64
		pt   [BlockSize]byte
	}
	var blocks []rec
	f.c.mem.ForEachBlock(func(addr uint64) {
		if f.c.lay.RegionOf(addr) != RegionData {
			return
		}
		r := rec{addr: addr}
		if p := f.onChip(f.c.l2, addr); p != nil {
			r.pt = *p
		} else {
			var ct [BlockSize]byte
			f.c.mem.ReadBlock(addr, ct[:])
			f.decrypt(r.pt[:], ct[:], addr, f.counterFor(addr))
		}
		blocks = append(blocks, r)
	})
	// Phase 2: switch epochs and re-encrypt, in address order.
	f.epoch++
	f.rekey()
	for _, r := range blocks {
		var ct [BlockSize]byte
		f.encrypt(ct[:], r.pt[:], r.addr, f.counterFor(r.addr))
		f.c.mem.WriteBlock(r.addr, ct[:])
	}
	if f.c.cfg.Auth != config.AuthNone {
		f.rebuildTree(now)
	}
}

// rebuildTree recomputes every MAC bottom-up for all written blocks (the
// epoch key change invalidates them all).
func (f *functional) rebuildTree(now sim.Time) {
	geo := f.c.lay.Geo
	nc := f.c.nodeCache()
	// Written in-tree blocks per level, leaves first (index level+1),
	// including nodes that exist only on-chip: in a line of the node cache
	// or in the write-back buffer.
	levels := make([][]uint64, geo.NumLevels()+1)
	add := func(addr uint64) {
		switch {
		case addr < geo.LeafBytes:
			levels[0] = append(levels[0], addr)
		case f.c.lay.RegionOf(addr) == RegionMac:
			l := geo.LevelOf(addr) + 1
			levels[l] = append(levels[l], addr)
		}
	}
	f.c.mem.ForEachBlock(add)
	addNode := func(addr uint64) {
		if f.c.lay.RegionOf(addr) == RegionMac {
			add(addr)
		}
	}
	nc.ForEach(func(addr uint64, _ bool) { addNode(addr) })
	for _, it := range f.c.wbQueue[f.c.wbHead:] {
		if it.live {
			addNode(it.addr)
		}
	}
	for l := range levels {
		// A parent written below is added once per child: sort and dedupe
		// the level before computing its MACs.
		slices.Sort(levels[l])
		levels[l] = slices.Compact(levels[l])
		for _, addr := range levels[l] {
			var content [BlockSize]byte
			var s *[BlockSize]byte
			if l > 0 {
				s = f.onChip(nc, addr)
			}
			switch {
			case s != nil:
				content = *s
			case f.c.mem.HasBlock(addr):
				f.c.mem.ReadBlock(addr, content[:])
			default:
				continue
			}
			var mac [16]byte
			n := f.computeMac(addr, content[:], f.counterFor(addr), &mac)
			parent, slot, ok := geo.Parent(addr)
			if !ok {
				f.root.Set(mac[:n])
				continue
			}
			lo, hi := geo.MacOffset(slot)
			if p := f.onChip(nc, parent); p != nil {
				copy(p[lo:hi], mac[:n])
				// The on-chip copy now differs from memory; it must be
				// written back eventually or the new MAC is lost. A queued
				// copy will be.
				nc.SetDirty(parent)
			} else {
				var pc [BlockSize]byte
				f.c.mem.ReadBlock(parent, pc[:])
				copy(pc[lo:hi], mac[:n])
				f.c.mem.WriteBlock(parent, pc[:])
				pl := geo.LevelOf(parent) + 1
				levels[pl] = append(levels[pl], parent)
			}
		}
	}
}

// Peek copies the current plaintext of an on-chip data block.
//
//secmemlint:secret out:dst
func (f *functional) peek(addr uint64, dst []byte) bool {
	p := f.resident(f.c.l2, addr)
	if p == nil {
		return false
	}
	copy(dst, p[:])
	return true
}

// Poke overwrites bytes within an on-chip data block's plaintext.
func (f *functional) poke(addr uint64, off int, src []byte) bool {
	p := f.resident(f.c.l2, addr)
	if p == nil {
		return false
	}
	copy(p[off:], src)
	return true
}
