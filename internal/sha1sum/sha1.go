// Package sha1sum implements SHA-1 (FIPS 180-4) from scratch. It backs the
// baseline authentication schemes the paper compares against (Merkle trees
// of SHA-1 MACs with 80-640 cycle engine latencies) so that the functional
// simulation can compute real SHA-1-based authentication codes.
//
// SHA-1 is cryptographically broken for collision resistance; it is included
// here strictly as the historical comparator the 2006 paper evaluates.
package sha1sum

import "encoding/binary"

// Size is the SHA-1 digest size in bytes.
const Size = 20

// BlockSize is the SHA-1 message block size in bytes.
const BlockSize = 64

// Digest is an incremental SHA-1 computation. The zero value is not ready;
// use New.
type Digest struct {
	h   [5]uint32
	buf [BlockSize]byte
	n   int    // bytes buffered in buf
	len uint64 // total message length in bytes
}

// New returns an initialized SHA-1 hash.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset restores the initial hash value.
func (d *Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.n = 0
	d.len = 0
}

// Write absorbs p. It never fails.
//
//secmemlint:secret p
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			d.block(d.buf[:])
			d.n = 0
		}
	}
	for len(p) >= BlockSize {
		d.block(p[:BlockSize])
		p = p[BlockSize:]
	}
	d.n += copy(d.buf[d.n:], p)
	return n, nil
}

// Sum returns the digest of everything written so far without disturbing
// the running state, appended to prefix.
func (d *Digest) Sum(prefix []byte) []byte {
	c := *d // copy so padding does not alter the stream
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - (int(c.len)+9)%BlockSize + 1
	if padLen == BlockSize+1 {
		padLen = 1
	}
	binary.BigEndian.PutUint64(pad[padLen:], c.len*8)
	c.Write(pad[:padLen+8])
	var out [Size]byte
	for i, v := range c.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return append(prefix, out[:]...)
}

//secmemlint:secret d p
func (d *Digest) block(p []byte) {
	var w [80]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 80; i++ {
		v := w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]
		w[i] = v<<1 | v>>31
	}
	a, b, c, dd, e := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4]
	for i := 0; i < 80; i++ {
		var f, k uint32
		switch {
		case i < 20:
			f = (b & c) | (^b & dd)
			k = 0x5A827999
		case i < 40:
			f = b ^ c ^ dd
			k = 0x6ED9EBA1
		case i < 60:
			f = (b & c) | (b & dd) | (c & dd)
			k = 0x8F1BBCDC
		default:
			f = b ^ c ^ dd
			k = 0xCA62C1D6
		}
		t := (a<<5 | a>>27) + f + e + k + w[i]
		e, dd, c, b, a = dd, c, b<<30|b>>2, a, t
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
}

// Sum20 computes the SHA-1 digest of data in one shot.
func Sum20(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	copy(out[:], d.Sum(nil))
	return out
}

// MAC computes the keyed authentication code used by the SHA-1 baseline
// schemes: SHA-1(key ‖ addr ‖ counter ‖ data), truncated to macBits. The
// 2006-era schemes predate mandatory HMAC in this setting; a prefix-keyed
// truncated hash matches what the comparator designs assumed, and the
// simulator only relies on it detecting tampering, which it does.
//
//secmemlint:secret key
func MAC(key []byte, addr, counter uint64, data []byte, macBits int) []byte {
	d := New()
	d.Write(key)
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:], addr)
	binary.BigEndian.PutUint64(hdr[8:], counter)
	d.Write(hdr[:])
	d.Write(data)
	sum := d.Sum(nil)
	switch macBits {
	case 32, 64, 128:
		return sum[:macBits/8]
	default:
		panic("sha1sum: MAC size must be 32, 64, or 128 bits")
	}
}
