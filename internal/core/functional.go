package core

import (
	"crypto/subtle"
	"sort"

	"secmem/internal/aescipher"
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
type functional struct {
	c *Controller
	//secmemlint:secret — AES memory-encryption key (on-chip only)
	key [16]byte
	//secmemlint:secret — SHA-1 MAC key for the AuthSHA1 configuration
	shaKey []byte
	epoch  byte
	pads   *gcmmode.PadGen
	direct *aescipher.Cipher

	// plain holds decrypted data blocks currently resident on-chip; meta
	// holds the contents of on-chip Merkle nodes. Counter-block contents
	// live in the counter store's maps and are (de)serialized at the edge.
	//
	//secmemlint:secret — plaintext cache-block contents; must never leave the chip unencrypted
	plain map[uint64]*[BlockSize]byte
	meta  map[uint64]*[BlockSize]byte

	root    merkle.Root
	tampers []Tamper
}

func newFunctional(c *Controller) *functional {
	f := &functional{
		c:     c,
		plain: make(map[uint64]*[BlockSize]byte),
		meta:  make(map[uint64]*[BlockSize]byte),
	}
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
	f.c.mTamper.Inc()
	f.c.rec.Instant("txn", "tamper", uint64(now))
}

// counterFor returns the counter value bound into a block's MAC and pad.
func (f *functional) counterFor(addr uint64) uint64 {
	if f.c.ctrs == nil {
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

// nodeContent returns a Merkle node's bytes, preferring the trusted on-chip
// copy, and reports whether the copy was on-chip.
func (f *functional) nodeContent(addr uint64, buf *[BlockSize]byte) (onChip bool) {
	if m, ok := f.meta[addr]; ok {
		*buf = *m
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

func (f *functional) onDataFill(now sim.Time, addr uint64) {
	var ct, pt [BlockSize]byte
	f.c.mem.ReadBlock(addr, ct[:])
	if f.c.cfg.Auth != config.AuthNone {
		f.verify(now, addr, ct[:], f.counterFor(addr)) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	}
	f.decrypt(pt[:], ct[:], addr, f.counterFor(addr))
	f.plain[addr] = &pt
}

func (f *functional) onMacFill(now sim.Time, addr uint64) {
	var buf [BlockSize]byte
	f.c.mem.ReadBlock(addr, buf[:])
	f.verify(now, addr, buf[:], f.counterFor(addr)) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	f.meta[addr] = &buf
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

func (f *functional) onDataWriteBack(now sim.Time, addr uint64) {
	pt, ok := f.plain[addr]
	if !ok {
		pt = new([BlockSize]byte)
	}
	var ct [BlockSize]byte
	f.encrypt(ct[:], pt[:], addr, f.counterFor(addr))
	f.c.mem.WriteBlock(addr, ct[:])
	delete(f.plain, addr)
}

func (f *functional) onMetaWriteBack(now sim.Time, addr uint64) {
	switch f.c.lay.RegionOf(addr) {
	case RegionMac:
		if m, ok := f.meta[addr]; ok {
			f.c.mem.WriteBlock(addr, m[:])
			delete(f.meta, addr)
		}
	default: // counter or derivative block: serialize current values
		img := f.c.ctrs.PackBlock(addr)
		f.c.mem.WriteBlock(addr, img[:])
	}
}

func (f *functional) onCleanEvict(addr uint64) {
	delete(f.plain, addr)
	delete(f.meta, addr)
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
	node, okNode := f.meta[parent]
	if !okNode {
		// The timing path fetched and filled the parent; mirror it.
		node = new([BlockSize]byte)
		f.c.mem.ReadBlock(parent, node[:])
		f.meta[parent] = node
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
		var r rec
		r.addr = addr
		if p, ok := f.plain[addr]; ok {
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
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].addr < blocks[j].addr })
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
	// Collect written in-tree blocks per level (-1 = leaves), including
	// nodes that exist only as on-chip copies.
	level := make(map[int][]uint64)
	add := func(addr uint64) {
		if addr >= geo.LeafBytes {
			if f.c.lay.RegionOf(addr) == RegionMac {
				l := geo.LevelOf(addr)
				if _, seen := sliceContains(level[l], addr); !seen {
					level[l] = append(level[l], addr)
				}
			}
			return
		}
		if _, seen := sliceContains(level[-1], addr); !seen {
			level[-1] = append(level[-1], addr)
		}
	}
	f.c.mem.ForEachBlock(add)
	for addr := range f.meta {
		add(addr)
	}
	for l := -1; l < geo.NumLevels(); l++ {
		blocks := level[l]
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, addr := range blocks {
			var content [BlockSize]byte
			if m, ok := f.meta[addr]; ok {
				content = *m
			} else if f.c.mem.HasBlock(addr) {
				f.c.mem.ReadBlock(addr, content[:])
			} else {
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
			if m, okm := f.meta[parent]; okm {
				copy(m[lo:hi], mac[:n])
				// The on-chip copy now differs from memory; it must be
				// written back eventually or the new MAC is lost.
				f.c.l2.SetDirty(parent)
			} else {
				var pc [BlockSize]byte
				f.c.mem.ReadBlock(parent, pc[:])
				copy(pc[lo:hi], mac[:n])
				f.c.mem.WriteBlock(parent, pc[:])
				if _, seen := sliceContains(level[geo.LevelOf(parent)], parent); !seen {
					level[geo.LevelOf(parent)] = append(level[geo.LevelOf(parent)], parent)
				}
			}
		}
	}
}

func sliceContains(s []uint64, v uint64) (int, bool) {
	for i, x := range s {
		if x == v {
			return i, true
		}
	}
	return 0, false
}

// Peek copies the current plaintext of an on-chip data block.
//
//secmemlint:secret out:dst
func (f *functional) peek(addr uint64, dst []byte) bool {
	p, ok := f.plain[addr]
	if !ok {
		return false
	}
	copy(dst, p[:])
	return true
}

// Poke overwrites bytes within an on-chip data block's plaintext.
func (f *functional) poke(addr uint64, off int, src []byte) bool {
	p, ok := f.plain[addr]
	if !ok {
		return false
	}
	copy(p[off:], src)
	return true
}
