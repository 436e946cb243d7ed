// Package gcmmode builds the Galois/Counter Mode of operation (NIST SP
// 800-38D) on top of the from-scratch AES and GF(2^128) substrates, and
// exposes the memory-specific forms used by the paper:
//
//   - counter-mode pad generation where the seed is the concatenation of a
//     chunk address, the block's (split or monolithic) counter value, and a
//     constant encryption initialization vector (EIV), and
//   - the per-block GCM authentication code: GHASH over the 64-byte block
//     ciphertext XORed with an authentication pad generated by encrypting
//     (address ‖ counter ‖ authentication IV), clippable to 32/64/128 bits.
//
// The standard Seal/Open AEAD is also provided so the construction can be
// validated against the NIST GCM test vectors.
package gcmmode

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"

	"secmem/internal/aescipher"
	"secmem/internal/gf128"
)

// ChunkSize is the AES encryption chunk size; a 64-byte cache block holds
// four chunks (Section 2 of the paper).
const ChunkSize = 16

// BlockChunks is the number of encryption chunks per 64-byte memory block.
const BlockChunks = 4

// MemBlockSize is the memory/cache block size assumed by the seed layout.
const MemBlockSize = BlockChunks * ChunkSize

// Seed is the 16-byte AES input from which a pad is generated. The layout is
//
//	bytes 0..5  : block address >> 6 (48 bits, block-granular)
//	byte  6     : chunk index within the block (0..3) or pad role tag
//	byte  7     : role (0 = encryption chunk, 1 = authentication pad)
//	bytes 8..14 : counter value (56 bits: covers 64-bit majors by folding)
//	byte  15    : IV selector byte from the EIV
//
// Uniqueness argument (mirrors the paper's): for a fixed key the pair
// (address, counter) never repeats for encryption because the counter is
// incremented on every write-back to that address, and role/chunk fields
// separate the four chunk pads and the authentication pad from one another.
type Seed [16]byte

// MakeSeed assembles a Seed. counter folds major and minor counters as
// produced by the counterstore package; role distinguishes encryption chunks
// (RoleEncrypt) from the authentication pad (RoleAuth).
func MakeSeed(blockAddr uint64, chunk int, role byte, counter uint64, eiv byte) Seed {
	var s Seed
	ba := blockAddr >> 6
	s[0] = byte(ba >> 40)
	s[1] = byte(ba >> 32)
	s[2] = byte(ba >> 24)
	s[3] = byte(ba >> 16)
	s[4] = byte(ba >> 8)
	s[5] = byte(ba)
	s[6] = byte(chunk)
	s[7] = role
	binary.BigEndian.PutUint64(s[8:], counter<<8)
	s[15] = eiv
	return s
}

// Pad roles for MakeSeed.
const (
	RoleEncrypt byte = 0
	RoleAuth    byte = 1
)

// PadGen generates counter-mode pads and authentication codes for 64-byte
// memory blocks. It owns the AES instance (the "AES engine" contents) and
// the Shoup product table of the GHASH subkey H = E_K(0^128); the hot
// methods (BlockPad, EncryptBlock, AuthPad, MAC, Verify) touch only the
// receiver's read-only state and the caller's stack, so they are safe for
// concurrent use and never allocate.
type PadGen struct {
	aes *aescipher.Cipher
	//secmemlint:secret — product table of the GHASH subkey H = E_K(0^128); knowing H forges MACs
	tbl    gf128.ProductTable8
	eiv    byte
	authIV byte
}

// encrypt encrypts one 16-byte block by value: array in, array out, so
// seeds and pads stay on the caller's stack.
//
//secmemlint:secret return
func encrypt(c *aescipher.Cipher, src [16]byte) (out [16]byte) {
	c.Encrypt(out[:], src[:])
	return out
}

// deriveH computes the GHASH subkey H = E_K(0^128) as an 8-bit product
// table, keeping both the zero block and H itself in stack arrays rather
// than per-constructor heap slices.
func deriveH(c *aescipher.Cipher) gf128.ProductTable8 {
	h := encrypt(c, [16]byte{})
	return gf128.NewProductTable8(gf128.FromBytes(h[:]))
}

// NewPadGen creates a PadGen over an AES instance. eiv and authIV are the
// two initialization-vector selector bytes from Section 2/3; they must
// differ so encryption pads and authentication pads never collide.
func NewPadGen(c *aescipher.Cipher, eiv, authIV byte) *PadGen {
	return &PadGen{aes: c, tbl: deriveH(c), eiv: eiv, authIV: authIV}
}

// BlockPad returns the 64-byte encryption pad for the block at blockAddr
// under the given counter value: four chunk pads concatenated. Pads are
// secret: pad ⊕ ciphertext is the plaintext. The seed is assembled once
// and only the chunk-index byte is re-patched between the four AES calls.
//
//secmemlint:secret return
func (p *PadGen) BlockPad(blockAddr, counter uint64) [MemBlockSize]byte {
	var out [MemBlockSize]byte
	s := MakeSeed(blockAddr, 0, RoleEncrypt, counter, p.eiv)
	for c := 0; c < BlockChunks; c++ {
		s[6] = byte(c)
		pad := encrypt(p.aes, [16]byte(s))
		copy(out[c*ChunkSize:(c+1)*ChunkSize], pad[:])
	}
	return out
}

// EncryptBlock XORs plaintext with the block pad, producing ciphertext (and
// vice versa: counter-mode decryption is the same operation).
//
//secmemlint:secret out:dst
func (p *PadGen) EncryptBlock(dst, src []byte, blockAddr, counter uint64) {
	if len(src) < MemBlockSize || len(dst) < MemBlockSize {
		panic("gcmmode: EncryptBlock needs full 64-byte blocks")
	}
	pad := p.BlockPad(blockAddr, counter)
	for i := 0; i < MemBlockSize; i++ {
		dst[i] = src[i] ^ pad[i]
	}
}

// AuthPad returns the 16-byte authentication pad E_K(addr ‖ counter ‖ IVa).
// The pad is secret: it is what keeps the GHASH state hidden inside the
// published MAC (GCM tag secrecy).
//
//secmemlint:secret return
func (p *PadGen) AuthPad(blockAddr, counter uint64) [16]byte {
	return encrypt(p.aes, [16]byte(MakeSeed(blockAddr, 0, RoleAuth, counter, p.authIV)))
}

// MAC computes the paper's per-block authentication code over a 64-byte
// ciphertext: GHASH_H(ct) XOR AuthPad, truncated to macBits (32, 64, or 128).
// The counter is thereby "directly used in authentication of its data block"
// (Section 4.3), so tampering with the counter breaks the MAC.
//
// The tag is returned in a fixed array plus its clipped length in bytes —
// the code is mac[:n] — so per-block MAC generation stays off the heap.
func (p *PadGen) MAC(ct []byte, blockAddr, counter uint64, macBits int) (mac [16]byte, n int) {
	if len(ct) != MemBlockSize {
		panic("gcmmode: MAC input must be one 64-byte block")
	}
	n = MACLen(macBits)
	sum := gf128.GHASHTable8(&p.tbl, nil, ct)
	pad := p.AuthPad(blockAddr, counter)
	for i := range sum {
		sum[i] ^= pad[i]
	}
	return sum, n
}

// MACLen maps a MAC width in bits to its byte length, panicking on widths
// the paper's schemes do not use.
func MACLen(bits int) int {
	switch bits {
	case 32, 64, 128:
		return bits / 8
	default:
		panic("gcmmode: MAC size must be 32, 64, or 128 bits")
	}
}

// Verify recomputes the MAC and compares in constant time.
func (p *PadGen) Verify(ct []byte, blockAddr, counter uint64, mac []byte) bool {
	want, n := p.MAC(ct, blockAddr, counter, len(mac)*8)
	return subtle.ConstantTimeCompare(want[:n], mac) == 1
}

// ---------------------------------------------------------------------------
// Standard GCM AEAD (for NIST vector validation and general use).

// AEAD is a standard GCM authenticated-encryption instance with a 96-bit
// nonce and 128-bit tag.
type AEAD struct {
	aes *aescipher.Cipher
	//secmemlint:secret — product table of the GHASH subkey H = E_K(0^128)
	tbl gf128.ProductTable8
}

// NewAEAD wraps an AES instance as a GCM AEAD.
func NewAEAD(c *aescipher.Cipher) *AEAD {
	return &AEAD{aes: c, tbl: deriveH(c)}
}

// NonceSize is the supported GCM nonce size (96 bits).
const NonceSize = 12

// TagSize is the GCM tag size produced by Seal.
const TagSize = 16

var errOpen = errors.New("gcmmode: message authentication failed")

func (a *AEAD) counterBlock(nonce []byte, ctr uint32) [16]byte {
	var j [16]byte
	copy(j[:], nonce)
	binary.BigEndian.PutUint32(j[12:], ctr)
	return j
}

func (a *AEAD) ctrCrypt(dst, src, nonce []byte, startCtr uint32) {
	ctr := startCtr
	for i := 0; i < len(src); i += 16 {
		ks := encrypt(a.aes, a.counterBlock(nonce, ctr))
		n := len(src) - i
		if n > 16 {
			n = 16
		}
		for k := 0; k < n; k++ {
			dst[i+k] = src[i+k] ^ ks[k]
		}
		ctr++
	}
}

// Seal encrypts plaintext with additional data aad and appends
// ciphertext ‖ tag to dst, returning the extended slice (crypto/cipher
// convention: pass a reused buffer to stay allocation-free, or nil to let
// Seal allocate). The nonce must be 12 bytes.
func (a *AEAD) Seal(dst, nonce, plaintext, aad []byte) []byte {
	if len(nonce) != NonceSize {
		panic("gcmmode: nonce must be 96 bits")
	}
	start := len(dst)
	out := grow(dst, len(plaintext)+TagSize)
	body := out[start:]
	a.ctrCrypt(body, plaintext, nonce, 2)
	tag := a.tag(nonce, body[:len(plaintext)], aad)
	copy(body[len(plaintext):], tag[:])
	return out
}

// Open verifies a Seal output and appends the plaintext to dst, returning
// the extended slice (pass a reused buffer to stay allocation-free).
func (a *AEAD) Open(dst, nonce, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < TagSize {
		return nil, errOpen
	}
	ct := sealed[:len(sealed)-TagSize]
	tag := a.tag(nonce, ct, aad)
	if subtle.ConstantTimeCompare(tag[:], sealed[len(ct):]) != 1 {
		return nil, errOpen
	}
	start := len(dst)
	out := grow(dst, len(ct))
	a.ctrCrypt(out[start:], ct, nonce, 2)
	return out, nil
}

// grow extends dst by n bytes, reusing capacity when the caller's buffer
// already has room (the zero-allocation path) and reallocating otherwise.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	out := make([]byte, len(dst)+n)
	copy(out, dst)
	return out
}

func (a *AEAD) tag(nonce, ct, aad []byte) [16]byte {
	s := gf128.GHASHTable8(&a.tbl, aad, ct)
	ek := encrypt(a.aes, a.counterBlock(nonce, 1))
	for i := range s {
		s[i] ^= ek[i]
	}
	return s
}

// NewAES128PadGen is a convenience constructor building a PadGen from a raw
// 16-byte key, as the memory controller does at reset.
func NewAES128PadGen(key []byte, eiv, authIV byte) *PadGen {
	return NewPadGen(aescipher.MustNew(key), eiv, authIV)
}
