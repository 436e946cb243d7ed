// Package aescipher implements the AES block cipher (FIPS-197) from first
// principles: the S-box is derived from GF(2^8) inversion plus the affine
// transform at package init rather than hard-coded, and encryption operates
// on the canonical 4x4 state array.
//
// The package exists so that the secure-memory simulator's functional mode
// performs real encryption with no dependency on crypto/aes, keeping the
// whole substrate self-contained and auditable. It is validated against the
// FIPS-197 appendix vectors in the package tests.
package aescipher

import (
	"errors"
	"fmt"
)

// BlockSize is the AES block size in bytes for all key sizes.
const BlockSize = 16

var (
	sbox    [256]byte
	invSbox [256]byte
	// rcon holds the round constants used by key expansion. rcon[0] is
	// unused so that indices match the FIPS-197 numbering.
	rcon [11]byte
	// mul9/11/13/14 are the InvMixColumns constant-multiplication tables;
	// computing them once makes decryption as table-driven as encryption.
	mul9, mul11, mul13, mul14 [256]byte
)

// mul2 multiplies a GF(2^8) element by x (i.e. by {02}) modulo the AES
// polynomial x^8 + x^4 + x^3 + x + 1.
//
//secmemlint:secret b
func mul2(b byte) byte {
	hi := b & 0x80
	b <<= 1
	if hi != 0 { //secmemlint:ignore cttiming models the hardware engine's combinational xtime reduction; software branch timing out of scope
		b ^= 0x1b
	}
	return b
}

// Mul multiplies two elements of GF(2^8) under the AES reduction polynomial.
// Exported because the Merkle/GHASH tests reuse it as an independent oracle
// for small-field algebra.
func Mul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		b >>= 1
		a = mul2(a)
	}
	return p
}

func init() {
	// Build exp/log tables over the generator {03}, then the S-box as
	// affine(inverse(x)) per FIPS-197 section 5.1.1.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		log[x] = byte(i)
		x = Mul(x, 3)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return exp[(255-int(log[b]))%255]
	}
	rotl := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for i := 0; i < 256; i++ {
		v := inv(byte(i))
		s := v ^ rotl(v, 1) ^ rotl(v, 2) ^ rotl(v, 3) ^ rotl(v, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
	c := byte(1)
	for i := 1; i <= 10; i++ {
		rcon[i] = c
		c = mul2(c)
	}
	initTTables()
	for i := 0; i < 256; i++ {
		b := byte(i)
		mul9[i] = Mul(b, 0x09)
		mul11[i] = Mul(b, 0x0b)
		mul13[i] = Mul(b, 0x0d)
		mul14[i] = Mul(b, 0x0e)
	}
}

// Cipher is an expanded-key AES instance. It is safe for concurrent use
// once created: all methods are read-only with respect to the receiver.
type Cipher struct {
	//secmemlint:secret — round keys for encryption (expanded key schedule)
	enc []uint32
	//secmemlint:secret — round keys for decryption (equivalent inverse cipher)
	dec    []uint32
	rounds int
}

// New expands key (16, 24, or 32 bytes for AES-128/192/256) into a Cipher.
//
//secmemlint:secret key
func New(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case 16:
		rounds = 10
	case 24:
		rounds = 12
	case 32:
		rounds = 14
	default:
		return nil, fmt.Errorf("aescipher: invalid key size %d", len(key))
	}
	c := &Cipher{rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// MustNew is New but panics on a bad key size; convenient for fixed-size
// keys generated inside the simulator.
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// subWord applies the S-box to each byte of a key-schedule word. The
// lookups are secret-indexed — the canonical AES cache-timing channel —
// and are suppressed per line because this code models the hardware
// engine's combinational S-box, where no cache exists (Section 5).
//
//secmemlint:secret w
func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 | //secmemlint:ignore cttiming models the hardware engine's combinational S-box; software table timing out of scope
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff]) //secmemlint:ignore cttiming models the hardware engine's combinational S-box; software table timing out of scope
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

//secmemlint:secret key
func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	w := make([]uint32, n)
	for i := 0; i < nk; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := nk; i < n; i++ {
		t := w[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk])<<24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	c.enc = w

	// Equivalent inverse cipher key schedule: reverse round order and apply
	// InvMixColumns to the middle round keys (FIPS-197 section 5.3.5).
	d := make([]uint32, n)
	for i := 0; i < n; i += 4 {
		j := n - 4 - i
		for k := 0; k < 4; k++ {
			v := w[j+k]
			if i > 0 && i < n-4 {
				v = invMixWord(v)
			}
			d[i+k] = v
		}
	}
	c.dec = d
}

//secmemlint:secret w
func invMixWord(w uint32) uint32 {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	var o [4]byte
	//secmemlint:ignore cttiming models the hardware key-schedule InvMixColumns network; software table timing out of scope
	o[0] = mul14[b[0]] ^ mul11[b[1]] ^ mul13[b[2]] ^ mul9[b[3]]
	//secmemlint:ignore cttiming models the hardware key-schedule InvMixColumns network; software table timing out of scope
	o[1] = mul9[b[0]] ^ mul14[b[1]] ^ mul11[b[2]] ^ mul13[b[3]]
	//secmemlint:ignore cttiming models the hardware key-schedule InvMixColumns network; software table timing out of scope
	o[2] = mul13[b[0]] ^ mul9[b[1]] ^ mul14[b[2]] ^ mul11[b[3]]
	//secmemlint:ignore cttiming models the hardware key-schedule InvMixColumns network; software table timing out of scope
	o[3] = mul11[b[0]] ^ mul13[b[1]] ^ mul9[b[2]] ^ mul14[b[3]]
	return uint32(o[0])<<24 | uint32(o[1])<<16 | uint32(o[2])<<8 | uint32(o[3])
}

// ErrBlockSize is returned by checked block operations on wrong-size input.
var ErrBlockSize = errors.New("aescipher: input not a full block")

// Encrypt encrypts exactly one 16-byte block from src into dst via the
// T-table rounds (ttable.go). dst and src may overlap completely or not at
// all. EncryptOracle is the byte-wise reference the tests pin this against.
//
//secmemlint:secret out:dst
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic(ErrBlockSize)
	}
	c.encryptBlockFast(dst, src)
}

// EncryptOracle encrypts one block with the literal FIPS-197 step-by-step
// rounds (SubBytes, ShiftRows, MixColumns as separate byte transforms). It
// is the differential oracle for the T-table path and the baseline the
// speed benchmarks measure the fast path against; production callers use
// Encrypt.
func (c *Cipher) EncryptOracle(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic(ErrBlockSize)
	}
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, c.enc[0:4])
	for r := 1; r < c.rounds; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, c.enc[4*r:4*r+4])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, c.enc[4*c.rounds:4*c.rounds+4])
	copy(dst, s[:])
}

// Decrypt decrypts exactly one 16-byte block from src into dst.
//
//secmemlint:secret out:dst
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic(ErrBlockSize)
	}
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, c.dec[0:4])
	for r := 1; r < c.rounds; r++ {
		invSubBytes(&s)
		invShiftRows(&s)
		invMixColumns(&s)
		addRoundKey(&s, c.dec[4*r:4*r+4])
	}
	invSubBytes(&s)
	invShiftRows(&s)
	addRoundKey(&s, c.dec[4*c.rounds:4*c.rounds+4])
	copy(dst, s[:])
}

// The state is stored column-major as FIPS-197 does: s[4*c+r] is row r,
// column c. Round keys are one uint32 per column, big-endian.

//secmemlint:secret s rk
func addRoundKey(s *[16]byte, rk []uint32) {
	for col := 0; col < 4; col++ {
		w := rk[col]
		s[4*col+0] ^= byte(w >> 24)
		s[4*col+1] ^= byte(w >> 16)
		s[4*col+2] ^= byte(w >> 8)
		s[4*col+3] ^= byte(w)
	}
}

//secmemlint:secret s
func subBytes(s *[16]byte) {
	for i := range s {
		s[i] = sbox[s[i]] //secmemlint:ignore cttiming models the hardware engine's combinational S-box; software table timing out of scope
	}
}

//secmemlint:secret s
func invSubBytes(s *[16]byte) {
	for i := range s {
		s[i] = invSbox[s[i]] //secmemlint:ignore cttiming models the hardware engine's combinational inverse S-box; software table timing out of scope
	}
}

//secmemlint:secret s
func shiftRows(s *[16]byte) {
	// Row r rotates left by r positions across the four columns.
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

//secmemlint:secret s
func invShiftRows(s *[16]byte) {
	s[1], s[5], s[9], s[13] = s[13], s[1], s[5], s[9]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[7], s[11], s[15], s[3]
}

//secmemlint:secret s
func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mul2(a0) ^ (mul2(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ mul2(a1) ^ (mul2(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ mul2(a2) ^ (mul2(a3) ^ a3)
		s[4*c+3] = (mul2(a0) ^ a0) ^ a1 ^ a2 ^ mul2(a3)
	}
}

//secmemlint:secret s
func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = mul14[a0] ^ mul11[a1] ^ mul13[a2] ^ mul9[a3] //secmemlint:ignore cttiming models the hardware engine's combinational InvMixColumns network; software table timing out of scope
		s[4*c+1] = mul9[a0] ^ mul14[a1] ^ mul11[a2] ^ mul13[a3] //secmemlint:ignore cttiming models the hardware engine's combinational InvMixColumns network; software table timing out of scope
		s[4*c+2] = mul13[a0] ^ mul9[a1] ^ mul14[a2] ^ mul11[a3] //secmemlint:ignore cttiming models the hardware engine's combinational InvMixColumns network; software table timing out of scope
		s[4*c+3] = mul11[a0] ^ mul13[a1] ^ mul9[a2] ^ mul14[a3] //secmemlint:ignore cttiming models the hardware engine's combinational InvMixColumns network; software table timing out of scope
	}
}
