package gf128

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func elemFromHex(t *testing.T, s string) Element {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		t.Fatalf("bad element hex %q", s)
	}
	return FromBytes(b)
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(b [16]byte) bool {
		e := FromBytes(b[:])
		return e.Bytes() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Known product from the McGrew–Viega GCM spec test case 2:
// H = 66e94bd4ef8a2c3b884cfa59ca342b2e, C1 = 0388dace60b6a392f328c2b971b2fe78,
// GHASH folds Y1 = C1 * H = 5e2ec746917062882c85b0685353deb7.
func TestKnownProduct(t *testing.T) {
	h := elemFromHex(t, "66e94bd4ef8a2c3b884cfa59ca342b2e")
	c := elemFromHex(t, "0388dace60b6a392f328c2b971b2fe78")
	got := c.Mul(h).Bytes()
	want, _ := hex.DecodeString("5e2ec746917062882c85b0685353deb7")
	if !bytes.Equal(got[:], want) {
		t.Errorf("product = %x, want %x", got, want)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	// The multiplicative identity in GCM bit order is the byte 0x80
	// followed by zeros (bit 0 set).
	one := Element{Hi: 0x8000000000000000}
	f := func(b [16]byte) bool {
		e := FromBytes(b[:])
		return e.Mul(one) == e && e.Mul(Element{}) == Element{}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b [16]byte) bool {
		x, y := FromBytes(a[:]), FromBytes(b[:])
		return x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulDistributesOverXor(t *testing.T) {
	f := func(a, b, c [16]byte) bool {
		x, y, z := FromBytes(a[:]), FromBytes(b[:]), FromBytes(c[:])
		return x.Mul(y.Xor(z)) == x.Mul(y).Xor(x.Mul(z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c [16]byte) bool {
		x, y, z := FromBytes(a[:]), FromBytes(b[:]), FromBytes(c[:])
		return x.Mul(y).Mul(z) == x.Mul(y.Mul(z))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGHASHSpecCase2(t *testing.T) {
	// GCM spec test case 2: H as above, single ciphertext block, no AAD.
	h, _ := hex.DecodeString("66e94bd4ef8a2c3b884cfa59ca342b2e")
	ct, _ := hex.DecodeString("0388dace60b6a392f328c2b971b2fe78")
	got := GHASH(h, nil, ct)
	want, _ := hex.DecodeString("f38cbb1ad69223dcc3457ae5b6b0f885")
	if !bytes.Equal(got[:], want) {
		t.Errorf("GHASH = %x, want %x", got, want)
	}
}

func TestGHASHPartialBlockPadding(t *testing.T) {
	h, _ := hex.DecodeString("66e94bd4ef8a2c3b884cfa59ca342b2e")
	short := []byte{1, 2, 3}
	padded := make([]byte, 16)
	copy(padded, short)
	// Same data zero-padded should give a different hash because the
	// length block differs, even though the folded blocks are identical.
	a := GHASH(h, nil, short)
	b := GHASH(h, nil, padded)
	if a == b {
		t.Error("length block not distinguishing padded inputs")
	}
}

func BenchmarkMul(b *testing.B) {
	x := Element{0x0123456789abcdef, 0xfedcba9876543210}
	y := Element{0xdeadbeefcafebabe, 0x0f1e2d3c4b5a6978}
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	_ = x
}

func BenchmarkGHASH64B(b *testing.B) {
	h := make([]byte, 16)
	h[0] = 0x42
	ct := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		GHASH(h, nil, ct)
	}
}
