package counterstore

import "testing"

// FuzzUnpackBlock feeds arbitrary 64-byte images to the counter-block
// deserializer — exactly what an attacker controls in the Section 4.3
// threat model. It must never panic, and packing what was unpacked must be
// the identity (the parse is a bijection on the block image).
func FuzzUnpackBlock(f *testing.F) {
	f.Add(make([]byte, 64), uint8(0))
	f.Add(append(make([]byte, 63), 0xFF), uint8(1))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, uint8(2))
	f.Fuzz(func(t *testing.T, img []byte, region uint8) {
		if len(img) < 64 {
			return
		}
		img = img[:64]
		s := splitStore()
		var ctrBlock uint64
		switch region % 3 {
		case 0: // split direct counter block
			ctrBlock = s.CounterBlockAddr(0)
		case 1: // another page's counter block
			ctrBlock = s.CounterBlockAddr(8192)
		default: // derivative block
			ctrBlock = s.CounterBlockAddr(macBase)
		}
		s.UnpackBlock(ctrBlock, img)
		back := s.PackBlock(ctrBlock)
		for i := range back {
			if back[i] != img[i] {
				t.Fatalf("pack(unpack(img)) differs at byte %d: %#x != %#x", i, back[i], img[i])
			}
		}
	})
}

// FuzzMonoUnpack does the same for each monolithic width.
func FuzzMonoUnpack(f *testing.F) {
	f.Add(make([]byte, 64), uint8(8))
	f.Add(make([]byte, 64), uint8(64))
	f.Fuzz(func(t *testing.T, img []byte, bitsRaw uint8) {
		if len(img) < 64 {
			return
		}
		img = img[:64]
		bits := []int{8, 16, 32, 64}[bitsRaw%4]
		s := monoStore(bits)
		ctrBlock := s.CounterBlockAddr(0)
		s.UnpackBlock(ctrBlock, img)
		back := s.PackBlock(ctrBlock)
		for i := range back {
			if back[i] != img[i] {
				t.Fatalf("bits=%d: pack(unpack(img)) differs at byte %d", bits, i)
			}
		}
	})
}
