// Package engine provides the timing models of the on-chip cryptographic
// engines: the pipelined AES engine shared by encryption and GCM
// authentication, and the SHA-1 engine used by the baseline authentication
// schemes. Parameters follow Section 5 of the paper: the AES engine has a
// 16-stage pipeline with an 80-cycle total latency (initiation interval 5),
// and the SHA-1 engine has 32 stages and a 320-cycle latency (II 10), with
// the SHA-1 latency sweepable for the Figure 7 sensitivity study.
package engine

import "secmem/internal/sim"

// Bank is a bank of identical pipelined engines on one timeline: each
// engine accepts an operation every ii cycles, and every operation
// completes latency cycles after it issues. The AES and SHA-1 banks differ
// only in those two numbers and in the name of their operation's span.
type Bank struct {
	sim.Timeline
	ii, latency sim.Time
	op          string
}

// The paper's AES engine, which no experiment varies: a 16-stage pipeline
// with an 80-cycle total latency.
const (
	AESLatency = 80
	AESStages  = 16
)

// NewAES builds an AES engine bank with `count` engines, each issuing one
// 16-byte pad every AESLatency/AESStages cycles.
func NewAES(count int) *Bank {
	return &Bank{Timeline: sim.NewTimeline(count), ii: AESLatency / AESStages, latency: AESLatency, op: "pad"}
}

// SHA1Stages is the depth of the paper's SHA-1 pipeline. Its latency is
// what the Figure 7 sweep varies (SystemConfig.SHA1Latency).
const SHA1Stages = 32

// NewSHA1 builds the SHA-1 engine with the given total latency (80-640 in
// the paper's sweep); II scales with latency to keep the 32-stage pipeline.
func NewSHA1(latency sim.Time) *Bank {
	return &Bank{Timeline: sim.NewTimeline(1), ii: max(latency/SHA1Stages, 1), latency: latency, op: "hash"}
}

// Issue schedules one operation whose input is complete at `ready` (one
// 16-byte pad on AES, one block hash on SHA-1) and returns when its result
// is available. Unlike GCM, SHA-1 cannot start until the whole block has
// arrived, which is exactly the latency disadvantage the paper exploits.
func (b *Bank) Issue(ready sim.Time) sim.Time {
	_, done := b.Reserve(ready, b.ii, b.latency, b.op)
	return done
}

// GenerateBlockPads schedules the four chunk pads of a 64-byte block (the
// seeds differ only in the chunk field, so all four issue as soon as the
// counter is known) and returns when the full 64-byte pad is ready.
func (b *Bank) GenerateBlockPads(ready sim.Time) sim.Time {
	var done sim.Time
	for i := 0; i < 4; i++ {
		done = max(done, b.Issue(ready))
	}
	return done
}

// GHASHCyclesPerChunk is the per-16-byte-chunk cost of the GHASH multiplier:
// one Galois-field multiply-and-XOR per cycle per the GCM proposal the paper
// cites.
const GHASHCyclesPerChunk = 1

// GCMAuthTail returns the cycles needed to finish GCM authentication once
// the ciphertext has fully arrived and the authentication pad is ready:
// chunks field multiplications plus the final pad XOR and compare.
func GCMAuthTail(chunks int) sim.Time {
	return sim.Time(chunks)*GHASHCyclesPerChunk + 1
}
