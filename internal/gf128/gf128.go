// Package gf128 implements arithmetic in GF(2^128) with the GCM reduction
// polynomial x^128 + x^7 + x^2 + x + 1, and the GHASH universal hash defined
// in NIST SP 800-38D. Elements use GCM's reflected bit order: bit 0 of the
// field element is the most significant bit of the first byte.
//
// The paper's authentication scheme (Section 3) is GHASH over the block
// ciphertext XORed with an AES-generated authentication pad; this package is
// the "Galois field multiplication" half of that hardware, validated against
// the NIST GCM test vectors in the gcmmode package.
package gf128

// Element is a GF(2^128) element in GCM bit order. Hi holds bits 0..63
// (first 8 bytes), Lo holds bits 64..127.
type Element struct {
	Hi, Lo uint64
}

// FromBytes loads a 16-byte big-endian block as a field element.
func FromBytes(b []byte) Element {
	_ = b[15]
	var e Element
	for i := 0; i < 8; i++ {
		e.Hi = e.Hi<<8 | uint64(b[i])
		e.Lo = e.Lo<<8 | uint64(b[i+8])
	}
	return e
}

// Bytes stores the element into a 16-byte block.
func (e Element) Bytes() [16]byte {
	var out [16]byte
	for i := 0; i < 8; i++ {
		out[i] = byte(e.Hi >> (56 - 8*i))
		out[i+8] = byte(e.Lo >> (56 - 8*i))
	}
	return out
}

// Xor returns e + other (addition in GF(2^128) is XOR).
func (e Element) Xor(o Element) Element {
	return Element{e.Hi ^ o.Hi, e.Lo ^ o.Lo}
}

// Mul returns the product e*o in GF(2^128) per the NIST SP 800-38D
// right-shift algorithm (Algorithm 1). Bit i of X is X.Hi's (63-i)th bit for
// i<64, reflecting GCM's little-endian bit numbering within big-endian bytes.
//
// The bit-serial loop branches on operand bits. In GHASH one operand is the
// secret subkey H and the accumulator carries tag state, so the software
// loop is variable-time in secrets; the suppressions below record that this
// models the paper's single-cycle combinational GF multiplier (Section 5),
// where the data-dependent branches have no timing image.
//
//secmemlint:secret e o
func (e Element) Mul(o Element) Element {
	var z Element
	v := o
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = e.Hi >> (63 - i) & 1
		} else {
			bit = e.Lo >> (127 - i) & 1
		}
		if bit == 1 { //secmemlint:ignore cttiming models the single-cycle hardware GF multiplier; software bit-serial timing out of scope
			z = z.Xor(v)
		}
		// v = v * x: right shift in GCM bit order, reduce by R if the
		// bit shifted out of position 127 was set.
		lsb := v.Lo & 1
		v.Lo = v.Lo>>1 | v.Hi<<63
		v.Hi >>= 1
		if lsb == 1 { //secmemlint:ignore cttiming models the single-cycle hardware GF multiplier; software bit-serial timing out of scope
			v.Hi ^= 0xe100000000000000 // R = 11100001 || 0^120
		}
	}
	return z
}

// Hash is an incremental GHASH computation keyed with H = CIPH_K(0^128).
// Each 16-byte block folded in costs one field multiplication — the paper's
// "chain of Galois Field Multiplications and XOR operations". The
// multiplication is table-driven (see table8.go): NewHash pays the 255
// table entries once, and every block thereafter is 16 byte lookups instead
// of a 128-iteration bit-serial product.
type Hash struct {
	//secmemlint:secret — Shoup table of the GHASH subkey H = E_K(0^128); knowing H forges tags
	t ProductTable8
	//secmemlint:secret — accumulated GHASH state (tag material until pad-masked)
	y Element
}

// NewHash returns a GHASH instance for hash subkey h (16 bytes).
func NewHash(h []byte) *Hash {
	return &Hash{t: NewProductTable8(FromBytes(h))}
}

// Update folds one or more complete 16-byte blocks into the hash state.
// len(p) must be a multiple of 16.
func (g *Hash) Update(p []byte) {
	if len(p)%16 != 0 {
		panic("gf128: GHASH update not block-aligned")
	}
	for len(p) > 0 {
		g.y = g.y.Xor(FromBytes(p[:16])).MulTable8(&g.t)
		p = p[16:]
	}
}

// UpdateLengths folds the final GCM length block: bit lengths of the AAD and
// ciphertext as two big-endian 64-bit integers.
func (g *Hash) UpdateLengths(aadBits, ctBits uint64) {
	var blk [16]byte
	for i := 0; i < 8; i++ {
		blk[i] = byte(aadBits >> (56 - 8*i))
		blk[8+i] = byte(ctBits >> (56 - 8*i))
	}
	g.Update(blk[:])
}

// Sum returns the current GHASH value — tag material that stays secret
// until it is masked with the authentication pad and clipped.
func (g *Hash) Sum() [16]byte { return g.y.Bytes() }

// GHASH computes the one-shot GHASH_H(aad, ct) with standard zero padding of
// both regions to block boundaries and the trailing length block.
func GHASH(h, aad, ct []byte) [16]byte {
	g := NewHash(h)
	feed := func(p []byte) {
		full := len(p) / 16 * 16
		g.Update(p[:full])
		if rem := len(p) - full; rem > 0 {
			var blk [16]byte
			copy(blk[:], p[full:])
			g.Update(blk[:])
		}
	}
	feed(aad)
	feed(ct)
	g.UpdateLengths(uint64(len(aad))*8, uint64(len(ct))*8)
	return g.Sum()
}
