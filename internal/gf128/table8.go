package gf128

import "math/bits"

// This file is the production GHASH multiplier: Shoup's 8-bit table method.
// The bit-serial Mul in gf128.go walks all 128 bits of one operand; when
// that operand is fixed (GHASH multiplies everything by the same subkey H),
// the products i·H for every byte i can be precomputed once, turning each
// multiplication into 16 byte lookups plus 16 shift-and-reduce steps. That
// is the same trade hardware GHASH engines make (wider combinational
// multiplier fed by a fixed H), so the fast path models the same machine as
// the oracle — Mul stays as the independently-validated reference, and
// table8_test.go and FuzzMulTable pin the two together, mirroring how the
// T-table AES keeps its S-box reference.

// ProductTable8 holds the 256 products i·H (i an 8-bit field element in GCM
// bit order) for a fixed multiplicand H. It is 4 KB — the size/speed trade
// hardware GHASH engines make with a wider partial-product mux — and is
// read-only after construction, so one table may be shared by concurrent
// readers.
type ProductTable8 struct {
	//secmemlint:secret — multiples of the GHASH subkey H; recovering any entry recovers H
	m [256]Element
}

// reduce8 holds, for each byte shifted out the low end of the accumulator
// during an 8-bit shift, the polynomial that folds back in at the top of the
// high word. Entries are generated at init from mulX rather than
// hard-coded, so the table and the bit-serial oracle share one definition
// of the field.
var reduce8 [256]uint64

// rev8 reverses the bits of a byte: table indices are the byte as read from
// the element words, whose bit significance is reflected relative to GCM
// polynomial order.
var rev8 [256]byte

// mulX returns e·x (one right shift in GCM bit order with reduction).
func mulX(e Element) Element {
	lsb := e.Lo & 1
	e.Lo = e.Lo>>1 | e.Hi<<63
	e.Hi >>= 1
	if lsb == 1 { //secmemlint:ignore cttiming models the combinational GF multiplier's reduction mux; software bit timing out of scope
		e.Hi ^= 0xe100000000000000
	}
	return e
}

func init() {
	for i := 0; i < 256; i++ {
		rev8[i] = bits.Reverse8(uint8(i))
		// Shifting Element{Lo: i} right eight times folds each outgoing bit
		// through the reduction polynomial; what accumulates in Hi is exactly
		// the fold an 8-bit shift of a full accumulator must XOR back in
		// (mulX^8 is linear, so the low byte's contribution separates out).
		e := Element{Lo: uint64(i)}
		for j := 0; j < 8; j++ {
			e = mulX(e)
		}
		reduce8[i] = e.Hi
	}
}

// NewProductTable8 precomputes the 8-bit Shoup table for multiplicand h:
// entry rev8[i] is i·h, filled by doubling (i even) and adding h (i odd).
func NewProductTable8(h Element) ProductTable8 {
	var t ProductTable8
	t.m[rev8[1]] = h
	for i := 2; i < 256; i += 2 {
		t.m[rev8[i]] = mulX(t.m[rev8[i/2]])
		t.m[rev8[i+1]] = t.m[rev8[i]].Xor(h)
	}
	return t
}

// MulTable8 returns e·h where t = NewProductTable8(h): 16 byte-wide table
// lookups instead of Mul's 128 serial iterations. The byte-indexed loads
// model the hardware multiplier's parallel partial-product mux; like the
// oracle's data-dependent XORs, their software cache timing is out of scope.
//
//secmemlint:hotpath
func (e Element) MulTable8(t *ProductTable8) Element {
	var z Element
	for _, word := range [2]uint64{e.Lo, e.Hi} {
		for j := 0; j < 64; j += 8 {
			lsb := z.Lo & 0xff
			z.Lo = z.Lo>>8 | z.Hi<<56
			z.Hi >>= 8
			z.Hi ^= reduce8[lsb] //secmemlint:ignore cttiming models the hardware multiplier's reduction network; software table timing out of scope
			p := &t.m[word&0xff] //secmemlint:ignore cttiming models the hardware multiplier's partial-product mux; software table timing out of scope
			z.Hi ^= p.Hi
			z.Lo ^= p.Lo
			word >>= 8
		}
	}
	return z
}

// GHASHTable8 is GHASH_H(aad, ct) computed with a prebuilt 8-bit table for
// H. It matches GHASH byte for byte and never touches the heap, so
// per-block MAC paths can call it at memory-traffic rates.
//
//secmemlint:hotpath
func GHASHTable8(t *ProductTable8, aad, ct []byte) [16]byte {
	var y Element
	feed := func(p []byte) {
		for len(p) >= 16 {
			y = y.Xor(FromBytes(p[:16])).MulTable8(t)
			p = p[16:]
		}
		if len(p) > 0 {
			var blk [16]byte
			copy(blk[:], p)
			y = y.Xor(FromBytes(blk[:])).MulTable8(t)
		}
	}
	feed(aad)
	feed(ct)
	var lens Element
	lens.Hi = uint64(len(aad)) * 8
	lens.Lo = uint64(len(ct)) * 8
	y = y.Xor(lens).MulTable8(t)
	return y.Bytes()
}
