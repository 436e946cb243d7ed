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

import "encoding/binary"

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

// GHASH computes GHASH_H(aad, ct) with standard zero padding of both
// regions to block boundaries and the trailing length block. It multiplies
// with the bit-serial Mul, so it shares no multiply with GHASHTable8, the
// fast path it is the oracle of.
func GHASH(h, aad, ct []byte) [16]byte {
	key := FromBytes(h)
	var y Element
	feed := func(p []byte) {
		for len(p) > 0 {
			var blk [16]byte
			n := copy(blk[:], p)
			y = y.Xor(FromBytes(blk[:])).Mul(key)
			p = p[n:]
		}
	}
	feed(aad)
	feed(ct)
	var lens [16]byte
	binary.BigEndian.PutUint64(lens[:8], uint64(len(aad))*8)
	binary.BigEndian.PutUint64(lens[8:], uint64(len(ct))*8)
	feed(lens[:])
	return y.Bytes()
}
