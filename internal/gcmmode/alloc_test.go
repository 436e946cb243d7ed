package gcmmode

import (
	"testing"

	"secmem/internal/aescipher"
)

// TestHotPathsZeroAlloc pins the per-block operations the memory pipeline
// pays on every transfer — pad generation, counter-mode encryption, MAC
// generation and verification — to zero heap allocations per call. A
// regression here multiplies straight into campaign wall time, so it is a
// test rather than a benchmark observation.
func TestHotPathsZeroAlloc(t *testing.T) {
	p := newTestPadGen()
	ct := make([]byte, MemBlockSize)
	pt := make([]byte, MemBlockSize)
	tag, n := p.MAC(ct, 0x40, 1, 64)
	mac := tag[:n]

	cases := []struct {
		name string
		fn   func()
	}{
		{"BlockPad", func() { p.BlockPad(0x40, 1) }},
		{"EncryptBlock", func() { p.EncryptBlock(ct, pt, 0x40, 1) }},
		{"AuthPad", func() { p.AuthPad(0x40, 1) }},
		{"MAC", func() { p.MAC(ct, 0x40, 1, 64) }},
		{"Verify", func() { p.Verify(ct, 0x40, 1, mac) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
}

// TestSealOpenReuseBuffers verifies the dst-append contract: with a
// pre-sized destination, Seal and Open stay allocation-free.
func TestSealOpenReuseBuffers(t *testing.T) {
	a := NewAEAD(aescipher.MustNew(make([]byte, 16)))
	nonce := make([]byte, NonceSize)
	pt := make([]byte, 64)
	sealed := make([]byte, 0, len(pt)+TagSize)
	opened := make([]byte, 0, len(pt))
	sealed = a.Seal(sealed, nonce, pt, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		sealed = a.Seal(sealed[:0], nonce, pt, nil)
	}); allocs != 0 {
		t.Errorf("Seal with reused dst allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, err := a.Open(opened[:0], nonce, sealed, nil)
		if err != nil {
			t.Fatal(err)
		}
		opened = out
	}); allocs != 0 {
		t.Errorf("Open with reused dst allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConstructorsAllocateOnlyTheReceiver pins NewPadGen and NewAEAD to a
// single allocation each (the returned struct): the all-zero block and the
// subkey H now live in stack arrays instead of two per-constructor slices.
func TestConstructorsAllocateOnlyTheReceiver(t *testing.T) {
	cipher := aescipher.MustNew(make([]byte, 16))
	if allocs := testing.AllocsPerRun(100, func() { NewPadGen(cipher, 0, 1) }); allocs > 1 {
		t.Errorf("NewPadGen allocates %.1f objects/op, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { NewAEAD(cipher) }); allocs > 1 {
		t.Errorf("NewAEAD allocates %.1f objects/op, want <= 1", allocs)
	}
}
