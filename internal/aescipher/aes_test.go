package aescipher

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C known-answer vectors for all three key sizes.
var fipsVectors = []struct {
	key, plain, cipher string
}{
	{
		"000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff",
		"69c4e0d86a7b0430d8cdb78070b4c55a",
	},
	{
		"000102030405060708090a0b0c0d0e0f1011121314151617",
		"00112233445566778899aabbccddeeff",
		"dda97ca4864cdfe06eaf70a0ec0d7191",
	},
	{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"00112233445566778899aabbccddeeff",
		"8ea2b7ca516745bfeafc49904b496089",
	},
}

func TestFIPS197Vectors(t *testing.T) {
	for _, v := range fipsVectors {
		c := MustNew(unhex(t, v.key))
		got := make([]byte, 16)
		c.Encrypt(got, unhex(t, v.plain))
		if want := unhex(t, v.cipher); !bytes.Equal(got, want) {
			t.Errorf("key %s: encrypt = %x, want %x", v.key, got, want)
		}
		back := make([]byte, 16)
		c.Decrypt(back, got)
		if want := unhex(t, v.plain); !bytes.Equal(back, want) {
			t.Errorf("key %s: decrypt = %x, want %x", v.key, back, want)
		}
	}
}

// FIPS-197 Appendix B worked example (AES-128).
func TestAppendixBExample(t *testing.T) {
	c := MustNew(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	got := make([]byte, 16)
	c.Encrypt(got, unhex(t, "3243f6a8885a308d313198a2e0370734"))
	if want := unhex(t, "3925841d02dc09fbdc118597196a0b32"); !bytes.Equal(got, want) {
		t.Errorf("encrypt = %x, want %x", got, want)
	}
}

func TestNewRejectsBadKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 23, 25, 31, 33, 64} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New accepted %d-byte key", n)
		}
	}
	for _, n := range []int{16, 24, 32} {
		if _, err := New(make([]byte, n)); err != nil {
			t.Errorf("New rejected %d-byte key: %v", n, err)
		}
	}
}

func TestEncryptInPlace(t *testing.T) {
	c := MustNew(unhex(t, "000102030405060708090a0b0c0d0e0f"))
	buf := unhex(t, "00112233445566778899aabbccddeeff")
	c.Encrypt(buf, buf)
	if want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a"); !bytes.Equal(buf, want) {
		t.Errorf("in-place encrypt = %x, want %x", buf, want)
	}
	c.Decrypt(buf, buf)
	if want := unhex(t, "00112233445566778899aabbccddeeff"); !bytes.Equal(buf, want) {
		t.Errorf("in-place decrypt = %x, want %x", buf, want)
	}
}

func TestShortBlockPanics(t *testing.T) {
	c := MustNew(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Fatal("Encrypt on short block did not panic")
		}
	}()
	c.Encrypt(make([]byte, 8), make([]byte, 8))
}

func TestSboxIsPermutationAndInverse(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		s := sbox[i]
		if seen[s] {
			t.Fatalf("sbox value %#x repeated", s)
		}
		seen[s] = true
		if invSbox[s] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, invSbox[s])
		}
	}
	// Two spot values from FIPS-197 figure 7.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Errorf("sbox spot check failed: %#x %#x %#x", sbox[0x00], sbox[0x53], sbox[0xff])
	}
}

func TestGFMulProperties(t *testing.T) {
	// Commutativity and distributivity over a quick sample.
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	dist := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(dist, nil); err != nil {
		t.Error(err)
	}
	// Identity and annihilator.
	for i := 0; i < 256; i++ {
		if Mul(byte(i), 1) != byte(i) {
			t.Fatalf("Mul(%#x, 1) != %#x", i, i)
		}
		if Mul(byte(i), 0) != 0 {
			t.Fatalf("Mul(%#x, 0) != 0", i)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, ks := range []int{16, 24, 32} {
		ks := ks
		f := func(key [32]byte, pt [16]byte) bool {
			c := MustNew(key[:ks])
			var ct, back [16]byte
			c.Encrypt(ct[:], pt[:])
			c.Decrypt(back[:], ct[:])
			return back == pt && ct != pt // SPN should never be identity on random input
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
			t.Errorf("key size %d: %v", ks, err)
		}
	}
}

func TestRoundsPerKeySize(t *testing.T) {
	for _, tc := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		c := MustNew(make([]byte, tc.keyLen))
		if c.rounds != tc.rounds {
			t.Errorf("key %d bytes: rounds = %d, want %d", tc.keyLen, c.rounds, tc.rounds)
		}
	}
}

func TestKeyAvalanche(t *testing.T) {
	// Flipping one key bit must change the ciphertext (sanity, not a
	// statistical test).
	key := make([]byte, 16)
	pt := make([]byte, 16)
	base := make([]byte, 16)
	MustNew(key).Encrypt(base, pt)
	key[0] ^= 1
	other := make([]byte, 16)
	MustNew(key).Encrypt(other, pt)
	if bytes.Equal(base, other) {
		t.Error("ciphertext unchanged after key bit flip")
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkDecryptBlock(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Decrypt(buf, buf)
	}
}
