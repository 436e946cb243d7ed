// Package interproc pins constant-time checking across function
// boundaries in the local taint pass: a helper that declares its parameter
// secret is checked inside its own body, a "return"-annotated producer and
// an "out:" parameter taint the caller's values, and an unannotated helper
// fed a secret stays silent (the documented trade of the local pass).
package interproc

var sbox [256]byte

type box struct {
	//secmemlint:secret — the secret byte driving the lookups
	k byte
}

// pick declares its index secret: the lookup in its own body is reported.
//
//secmemlint:secret i
func pick(i byte) byte {
	return sbox[i] // want "memory index depends on secret data"
}

// nibble is a "return"-annotated producer: its result is secret in every
// caller.
//
//secmemlint:secret return
func (b *box) nibble() byte {
	return b.k & 0xf
}

func (b *box) branchOnNibble() int {
	if b.nibble() == 3 { // want "if condition depends on secret data"
		return 1
	}
	return 0
}

// spill copies the secret into *dst: "out:dst" taints the caller's
// variable after the call.
//
//secmemlint:secret out:dst
func (b *box) spill(dst *byte) {
	*dst = b.k
}

func (b *box) loopOnSpill() int {
	var v byte
	b.spill(&v)
	n := 0
	for i := byte(0); i < v; i++ { // want "loop condition depends on secret data"
		n++
	}
	return n
}

// lookup is unannotated: the secret index leak passes it is not followed
// into lookup's body, so nothing is reported.
func lookup(i byte) byte {
	return sbox[i]
}

func (b *box) leak() byte {
	return lookup(b.k)
}
