package counterstore

import (
	"testing"
	"testing/quick"
)

// The pack tests set counters in the reference model, serialize them with
// its bit-by-bit packer, and require the store to read every counter back
// from that image and to pack the same image.

// checkUnpacked unpacks the reference model's image of ctrBlock into s and
// requires s to pack the same image back.
func checkUnpacked(t *testing.T, s *Store, r *refStore, ctrBlk uint64) [BlockSize]byte {
	t.Helper()
	img := r.pack(ctrBlk)
	s.UnpackBlock(ctrBlk, img[:])
	if back := s.PackBlock(ctrBlk); back != img {
		t.Fatalf("pack(unpack(img)) = %x, want %x", back, img)
	}
	return img
}

func TestSplitPackRoundTrip(t *testing.T) {
	f := func(major uint64, minorSeeds [8]uint8, blkSel uint8) bool {
		s, r := splitStore(), newRefStore(splitConfig())
		page := uint64(blkSel%4) * 4096
		r.majors[page] = major
		for i, m := range minorSeeds {
			r.minors[page+uint64(i)*64] = uint64(m % 128) // 7-bit
		}
		checkUnpacked(t, s, r, s.CounterBlockAddr(page))
		if s.Major(page) != major {
			return false
		}
		for i := uint64(0); i < 64; i++ {
			blk := page + i*64
			if s.ValueWithMajor(blk, 0) != r.minors[blk] || s.Value(blk) != r.value(blk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSplitPackIsExactlyOneBlock(t *testing.T) {
	// 64-bit major + 64 x 7-bit minors = 512 bits: the last bit written is
	// bit 511, so all 64 bytes are meaningful and a max-valued state fills
	// the final byte.
	s, r := splitStore(), newRefStore(splitConfig())
	r.majors[0] = ^uint64(0)
	for i := 0; i < 64; i++ {
		r.minors[uint64(i)*64] = 127
	}
	img := checkUnpacked(t, s, r, s.CounterBlockAddr(0))
	for i, b := range img {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF (512-bit exact pack)", i, b)
		}
	}
	if s.Major(0) != ^uint64(0) || s.ValueWithMajor(63*64, 0) != 127 {
		t.Errorf("major %#x, last minor %d", s.Major(0), s.ValueWithMajor(63*64, 0))
	}
}

func TestMonoPackRoundTrip(t *testing.T) {
	for _, bits := range []int{8, 16, 32, 64} {
		s, r := monoStore(bits), newRefStore(monoConfig(bits))
		perBlock := 512 / bits
		for i := 0; i < perBlock; i++ {
			r.values[uint64(i)*64] = uint64(i*37+1) & (1<<uint(bits) - 1)
		}
		checkUnpacked(t, s, r, s.CounterBlockAddr(0))
		for i := 0; i < perBlock; i++ {
			a := uint64(i) * 64
			if s.Value(a) != r.values[a] {
				t.Errorf("bits=%d counter %d: %d != %d", bits, i, s.Value(a), r.values[a])
			}
		}
	}
}

func TestDerivPackRoundTrip(t *testing.T) {
	s, r := splitStore(), newRefStore(splitConfig())
	rg := regions()
	// Derivative counters cover metadata blocks starting at DirectBase,
	// 32 16-bit counters per block.
	for i := 0; i < 32; i++ {
		r.values[rg.DirectBase+uint64(i)*64] = uint64(i)*1000 + 5
	}
	ctrBlk := s.CounterBlockAddr(rg.DirectBase)
	if ctrBlk < rg.DerivBase {
		t.Fatalf("metadata counter block %#x below deriv base", ctrBlk)
	}
	if other := s.CounterBlockAddr(rg.DirectBase + 31*64); other != ctrBlk {
		t.Fatalf("32 metadata blocks must share one deriv block: %#x vs %#x", other, ctrBlk)
	}
	checkUnpacked(t, s, r, ctrBlk)
	for i := 0; i < 32; i++ {
		a := rg.DirectBase + uint64(i)*64
		if s.Value(a) != r.values[a] {
			t.Errorf("deriv counter %d: %d != %d", i, s.Value(a), r.values[a])
		}
	}
	// An increment lands in its own 16-bit field.
	s.Increment(rg.DirectBase + 5*64)
	r.increment(rg.DirectBase + 5*64)
	if got, want := s.PackBlock(ctrBlk), r.pack(ctrBlk); got != want {
		t.Errorf("image after increment = %x, want %x", got, want)
	}
}

func TestPackNonCounterBlockPanics(t *testing.T) {
	s := splitStore()
	defer func() {
		if recover() == nil {
			t.Fatal("PackBlock on data address did not panic")
		}
	}()
	s.PackBlock(0x40) // data region
}

func TestUnpackShortImagePanics(t *testing.T) {
	s := splitStore()
	defer func() {
		if recover() == nil {
			t.Fatal("short image did not panic")
		}
	}()
	s.UnpackBlock(s.CounterBlockAddr(0), make([]byte, 10))
}

func TestCounterReplayViaUnpack(t *testing.T) {
	// The attack surface end-to-end at the store level: pack, advance the
	// counter, then unpack the stale image — the counter rolls back.
	s := splitStore()
	s.Increment(0)
	ctrBlk := s.CounterBlockAddr(0)
	old := s.PackBlock(ctrBlk)
	s.Increment(0)
	if s.Value(0) != 2 {
		t.Fatalf("value = %d", s.Value(0))
	}
	s.UnpackBlock(ctrBlk, old[:]) // attacker replays the old counter block
	if s.Value(0) != 1 {
		t.Fatalf("replay did not roll counter back: %d", s.Value(0))
	}
}
