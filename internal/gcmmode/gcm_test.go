package gcmmode

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"secmem/internal/aescipher"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// NIST / McGrew–Viega GCM test cases 1-4 (AES-128, 96-bit IV).
var gcmVectors = []struct {
	key, iv, pt, aad, ct, tag string
}{
	{
		key: "00000000000000000000000000000000",
		iv:  "000000000000000000000000",
		tag: "58e2fccefa7e3061367f1d57a4e7455a",
	},
	{
		key: "00000000000000000000000000000000",
		iv:  "000000000000000000000000",
		pt:  "00000000000000000000000000000000",
		ct:  "0388dace60b6a392f328c2b971b2fe78",
		tag: "ab6e47d42cec13bdf53a67b21257bddf",
	},
	{
		key: "feffe9928665731c6d6a8f9467308308",
		iv:  "cafebabefacedbaddecaf888",
		pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
			"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
		ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
			"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
		tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
	},
	{
		key: "feffe9928665731c6d6a8f9467308308",
		iv:  "cafebabefacedbaddecaf888",
		pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72" +
			"1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
		aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
		ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e" +
			"21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
		tag: "5bc94fbc3221a5db94fae95ae7121a47",
	},
}

func TestGCMNISTVectors(t *testing.T) {
	for i, v := range gcmVectors {
		a := NewAEAD(aescipher.MustNew(unhex(t, v.key)))
		sealed := a.Seal(nil, unhex(t, v.iv), unhex(t, v.pt), unhex(t, v.aad))
		wantCT := unhex(t, v.ct)
		wantTag := unhex(t, v.tag)
		if !bytes.Equal(sealed[:len(wantCT)], wantCT) {
			t.Errorf("case %d: ct = %x, want %x", i+1, sealed[:len(wantCT)], wantCT)
		}
		if !bytes.Equal(sealed[len(wantCT):], wantTag) {
			t.Errorf("case %d: tag = %x, want %x", i+1, sealed[len(wantCT):], wantTag)
		}
		pt, err := a.Open(nil, unhex(t, v.iv), sealed, unhex(t, v.aad))
		if err != nil {
			t.Errorf("case %d: Open failed: %v", i+1, err)
		} else if !bytes.Equal(pt, unhex(t, v.pt)) {
			t.Errorf("case %d: Open = %x, want %x", i+1, pt, v.pt)
		}
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	a := NewAEAD(aescipher.MustNew(make([]byte, 16)))
	nonce := make([]byte, 12)
	pt := []byte("sixteen byte msg")
	sealed := a.Seal(nil, nonce, pt, nil)
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x40
		if _, err := a.Open(nil, nonce, bad, nil); err == nil {
			t.Fatalf("tamper at byte %d not detected", i)
		}
	}
	if _, err := a.Open(nil, nonce, sealed, []byte("x")); err == nil {
		t.Fatal("AAD mismatch not detected")
	}
}

func newTestPadGen() *PadGen {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i*31 + 7)
	}
	return NewAES128PadGen(key, 0xA5, 0x5A)
}

func TestEncryptBlockRoundTrip(t *testing.T) {
	p := newTestPadGen()
	f := func(data [64]byte, addrSeed uint32, counter uint64) bool {
		addr := uint64(addrSeed) << 6
		var ct, back [64]byte
		p.EncryptBlock(ct[:], data[:], addr, counter)
		p.EncryptBlock(back[:], ct[:], addr, counter)
		return back == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPadDependsOnAddressAndCounter(t *testing.T) {
	p := newTestPadGen()
	base := p.BlockPad(0x1000, 5)
	if p.BlockPad(0x1040, 5) == base {
		t.Error("pad identical for different addresses")
	}
	if p.BlockPad(0x1000, 6) == base {
		t.Error("pad identical for different counters (pad reuse!)")
	}
	if p.BlockPad(0x1000, 5) != base {
		t.Error("pad not deterministic")
	}
}

func TestChunkPadsDistinct(t *testing.T) {
	p := newTestPadGen()
	pad := p.BlockPad(0x2000, 1)
	for i := 0; i < BlockChunks; i++ {
		for j := i + 1; j < BlockChunks; j++ {
			if bytes.Equal(pad[i*16:i*16+16], pad[j*16:j*16+16]) {
				t.Errorf("chunks %d and %d share a pad", i, j)
			}
		}
	}
}

func TestAuthPadDistinctFromEncryptionPads(t *testing.T) {
	p := newTestPadGen()
	enc := p.BlockPad(0x3000, 9)
	auth := p.AuthPad(0x3000, 9)
	for i := 0; i < BlockChunks; i++ {
		if bytes.Equal(enc[i*16:i*16+16], auth[:]) {
			t.Errorf("auth pad equals encryption chunk %d", i)
		}
	}
}

func TestMACDetectsTampering(t *testing.T) {
	p := newTestPadGen()
	ct := make([]byte, 64)
	for i := range ct {
		ct[i] = byte(i)
	}
	const addr, ctr = 0x8040, 17
	for _, bits := range []int{32, 64, 128} {
		tag, n := p.MAC(ct, addr, ctr, bits)
		if n != bits/8 {
			t.Fatalf("MAC length %d for %d bits", n, bits)
		}
		mac := tag[:n]
		if !p.Verify(ct, addr, ctr, mac) {
			t.Fatalf("%d-bit MAC does not verify its own output", bits)
		}
		bad := append([]byte(nil), ct...)
		bad[5] ^= 1
		if p.Verify(bad, addr, ctr, mac) {
			t.Errorf("%d-bit MAC accepted tampered ciphertext", bits)
		}
		if p.Verify(ct, addr+64, ctr, mac) {
			t.Errorf("%d-bit MAC accepted relocated block (splice attack)", bits)
		}
		if p.Verify(ct, addr, ctr+1, mac) {
			t.Errorf("%d-bit MAC accepted wrong counter (counter replay)", bits)
		}
	}
}

// The Section 4.3 scenario: if the attacker rolls a counter back, the MAC
// computed with the rolled-back counter must not match the stored MAC.
func TestCounterRollbackChangesMAC(t *testing.T) {
	p := newTestPadGen()
	pt := make([]byte, 64)
	copy(pt, "secret data that must stay secret")
	var ct1, ct2 [64]byte
	p.EncryptBlock(ct1[:], pt, 0x100, 7)
	p.EncryptBlock(ct2[:], pt, 0x100, 8)
	t1, n1 := p.MAC(ct1[:], 0x100, 7, 64)
	t2, n2 := p.MAC(ct2[:], 0x100, 8, 64)
	m1, m2 := t1[:n1], t2[:n2]
	if bytes.Equal(m1, m2) {
		t.Error("MACs equal across counter bump")
	}
	// Replaying old ciphertext+MAC against the new counter fails.
	if p.Verify(ct1[:], 0x100, 8, m1) {
		t.Error("replayed (ct, MAC) accepted under advanced counter")
	}
}

func TestSeedLayoutSeparatesFields(t *testing.T) {
	a := MakeSeed(0x40, 0, RoleEncrypt, 1, 0)
	b := MakeSeed(0x80, 0, RoleEncrypt, 1, 0)
	c := MakeSeed(0x40, 1, RoleEncrypt, 1, 0)
	d := MakeSeed(0x40, 0, RoleAuth, 1, 0)
	e := MakeSeed(0x40, 0, RoleEncrypt, 2, 0)
	seeds := []Seed{a, b, c, d, e}
	for i := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			if seeds[i] == seeds[j] {
				t.Errorf("seeds %d and %d collide: %x", i, j, seeds[i])
			}
		}
	}
}

func TestMACBadSizePanics(t *testing.T) {
	p := newTestPadGen()
	defer func() {
		if recover() == nil {
			t.Fatal("48-bit MAC did not panic")
		}
	}()
	p.MAC(make([]byte, 64), 0, 0, 48)
}

func BenchmarkBlockPad(b *testing.B) {
	p := newTestPadGen()
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		p.BlockPad(uint64(i)<<6, uint64(i))
	}
}

func BenchmarkMAC64(b *testing.B) {
	p := newTestPadGen()
	ct := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		p.MAC(ct, 0x40, uint64(i), 64)
	}
}
