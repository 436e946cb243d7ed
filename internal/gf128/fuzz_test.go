package gf128

import "testing"

// FuzzMulTable differentially tests the production 8-bit table multiply
// against the bit-serial Mul: for any subkey h and operand e,
// e.MulTable8(table8(h)) must equal e.Mul(h). The table path is what GHASH
// runs in the hot loop, so a divergence here is a silent MAC-forgery bug.
func FuzzMulTable(f *testing.F) {
	f.Add(
		[]byte{0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34, 0x2b, 0x2e},
		[]byte{0x03, 0x88, 0xda, 0xce, 0x60, 0xb6, 0xa3, 0x92, 0xf3, 0x28, 0xc2, 0xb9, 0x71, 0xb2, 0xfe, 0x78},
	)
	f.Add(make([]byte, 16), make([]byte, 16))
	f.Add(
		[]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	)
	f.Fuzz(func(t *testing.T, hb, eb []byte) {
		if len(hb) < 16 || len(eb) < 16 {
			t.Skip("need 16-byte operands")
		}
		h := FromBytes(hb[:16])
		e := FromBytes(eb[:16])
		tbl := NewProductTable8(h)
		fast := e.MulTable8(&tbl)
		slow := e.Mul(h)
		if fast != slow {
			fb, sb := fast.Bytes(), slow.Bytes()
			t.Fatalf("MulTable8 diverges from bit-serial Mul:\n  h    = %x\n  e    = %x\n  fast = %x\n  slow = %x",
				hb[:16], eb[:16], fb[:], sb[:])
		}
		// Sanity: the table path must also respect the distributive law the
		// GHASH accumulator relies on: (a ^ b) * h == a*h ^ b*h.
		b2 := FromBytes(eb[:16]).Xor(h)
		lhs := b2.MulTable8(&tbl)
		rhs := e.MulTable8(&tbl).Xor(h.MulTable8(&tbl))
		if lhs != rhs {
			t.Fatalf("MulTable8 violates distributivity for h=%x e=%x", hb[:16], eb[:16])
		}
	})
}
