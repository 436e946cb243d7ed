package counterstore

import (
	"encoding/binary"
	"fmt"

	"secmem/internal/sparse"
)

// This file defines the counter-block image, which is both the store's own
// storage and what functional mode writes to and reads from memory: the
// processor trusts what it reads from memory, so the simulated DRAM must
// hold real counter bytes that can be rolled back by the attacker — that is
// exactly the Section 4.3 counter-replay surface.
//
// A split counter block packs the 64-bit major counter followed by
// PageBlocks minor counters of MinorBits each, bit-contiguously and most
// significant bit first — for the paper's 7-bit minors and 64-block pages
// that is exactly 512 bits, one cache block; any bits past the last minor
// are zero. Monolithic blocks pack 512/Bits counters of Bits bits, global
// blocks eight 64-bit values, and derivative blocks 32 16-bit counters.

// field reads the w-bit counter at bit offset off of img. Every counter
// sits in the 64-bit big-endian word that starts at its first byte, or in
// the image's last word: minors are at most 16 bits wide, and the wider
// counters are byte-aligned.
func field(img *[BlockSize]byte, off, w uint) uint64 {
	j := min(off/8, BlockSize-8)
	word := binary.BigEndian.Uint64(img[j:])
	return word >> (64 - (off - 8*j) - w) & (uint64(1)<<w - 1)
}

// setField writes the low w bits of v as the counter at bit offset off.
func setField(img *[BlockSize]byte, off, w uint, v uint64) {
	j := min(off/8, BlockSize-8)
	shift := 64 - (off - 8*j) - w
	mask := (uint64(1)<<w - 1) << shift
	word := binary.BigEndian.Uint64(img[j:])
	binary.BigEndian.PutUint64(img[j:], word&^mask|v<<shift&mask)
}

// image finds the table and index of the counter block at ctrBlock.
func (s *Store) image(ctrBlock uint64) (*sparse.Table[counterBlock], uint64) {
	rg := s.cfg.Regions
	switch {
	case ctrBlock >= rg.DerivBase:
		return &s.deriv, (ctrBlock - rg.DerivBase) / BlockSize
	case ctrBlock >= rg.DirectBase:
		return &s.direct, (ctrBlock - rg.DirectBase) / BlockSize
	}
	panic(fmt.Sprintf("counterstore: %#x is not a counter block", ctrBlock))
}

// PackBlock returns the 64-byte image of the counter block at ctrBlock.
func (s *Store) PackBlock(ctrBlock uint64) [BlockSize]byte {
	t, i := s.image(ctrBlock)
	if b := t.At(i); b != nil {
		return b.img
	}
	return [BlockSize]byte{}
}

// UnpackBlock installs a 64-byte counter block image in the store,
// overwriting the counters it holds. This is the "trust what memory says"
// step a real memory controller performs on a counter-cache fill; calling it
// with attacker-modified bytes reproduces the counter-replay vulnerability
// when counter authentication is disabled. Bits past a split block's last
// minor are cleared, as they hold no counter.
func (s *Store) UnpackBlock(ctrBlock uint64, img []byte) {
	if len(img) < BlockSize {
		panic("counterstore: short counter block image")
	}
	t, i := s.image(ctrBlock)
	b := t.At(i)
	if b == nil {
		b = t.Slot(i)
	}
	dst := &b.img
	copy(dst[:], img)
	if end := s.first + s.width<<s.perShift; t == &s.direct && end < BlockSize*8 {
		dst[end/8] &^= 0xFF >> (end % 8)
		clear(dst[(end+7)/8:])
	}
}
