// Package interproc pins how secrets cross function boundaries in the
// local taint pass: exactly where "//secmemlint:secret" annotations on
// functions declare it. A helper that declares its parameter secret is
// checked inside its own body; a "return"-annotated producer taints its
// result at every call site; an "out:" parameter taints the caller's
// buffer after the call. Results also derive conservatively from the
// call's inputs. An unannotated helper fed a secret stays silent: the pass
// never looks into a callee's body, which is the trade DESIGN.md §8
// documents.
package interproc

import (
	"fmt"
	"strings"
)

type vault struct {
	//secmemlint:secret — the AES key under test
	key []byte
}

// hexify declares its parameter secret, so the sink in its own body is
// reported, whatever each caller passes.
//
//secmemlint:secret b
func hexify(b []byte) string {
	return fmt.Sprintf("%x", b) // want "secret-derived value reaches fmt.Sprintf"
}

func (v *vault) describe() string {
	return hexify(v.key)
}

// roundKey is a "return"-annotated producer: its result is secret in every
// caller, although the caller passes only a public index.
//
//secmemlint:secret return
func (v *vault) roundKey(i int) byte {
	return v.key[i]
}

func (v *vault) logRoundKey() {
	k := v.roundKey(3)
	fmt.Println(k) // want "secret-derived value reaches fmt.Println"
}

// fill writes key material into dst: "out:dst" makes the caller's buffer
// secret after the call.
//
//secmemlint:secret out:dst
func (v *vault) fill(dst []byte) (int, error) {
	return copy(dst, v.key), nil
}

func (v *vault) leakOutParam() string {
	buf := make([]byte, 16)
	n, err := v.fill(buf)
	if err != nil {
		// An out-parameter is written, not read: the secret left in buf
		// does not flow back into the call's results.
		return fmt.Sprint(err)
	}
	_ = n
	return fmt.Sprintf("%x", buf) // want "secret-derived value reaches fmt.Sprintf"
}

// wrap is unannotated, but a call's results derive from its inputs, so a
// secret passed through it still reaches the caller's sink.
func wrap(b []byte) []byte {
	return b
}

func (v *vault) leakThroughResult() {
	fmt.Println(wrap(v.key)) // want "secret-derived value reaches fmt.Println"
}

// counter is module state a method updates while handling a secret.
type counter struct{ n int }

func (c *counter) absorb(b []byte) { c.n += len(b) }

// A call hands a secret argument to the receiver only for a callee outside
// the module: strings.Builder.Write taints sb, while a module method
// declares its effects, so c stays public.
func (v *vault) receivers(c *counter) {
	var sb strings.Builder
	sb.Write(v.key)
	fmt.Println(sb.String()) // want "secret-derived value reaches fmt.Println"
	c.absorb(v.key)
	fmt.Println(c.n)
}

// render is unannotated: the secret launder passes it is not followed into
// render's body, so its sink stays silent. This is the documented trade of
// the local pass; annotate the helper, as hexify is, to check it.
func render(b []byte) string {
	return fmt.Sprintf("%x", b)
}

func (v *vault) launder() {
	_ = render(v.key)
}
