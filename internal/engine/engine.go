// Package engine provides the timing models of the on-chip cryptographic
// engines: the pipelined AES engine shared by encryption and GCM
// authentication, and the SHA-1 engine used by the baseline authentication
// schemes. Parameters follow Section 5 of the paper: the AES engine has a
// 16-stage pipeline with an 80-cycle total latency (initiation interval 5),
// and the SHA-1 engine has 32 stages and a 320-cycle latency (II 10), with
// the SHA-1 latency sweepable for the Figure 7 sensitivity study.
package engine

import (
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// AES is the AES engine timing model.
type AES struct {
	pipe *sim.Pipeline

	// Observability handles; nil-safe.
	hWait *obsv.Histogram
	rec   *obsv.Recorder
}

// AESDefaults are the paper's AES engine parameters.
const (
	AESLatency = 80
	AESStages  = 16
)

// NewAES builds an AES engine bank with `count` engines of the given total
// latency; the initiation interval is latency/stages per the paper's
// 16-stage pipeline.
func NewAES(count int, latency sim.Time) *AES {
	ii := latency / AESStages
	if ii == 0 {
		ii = 1
	}
	return &AES{pipe: sim.NewPipeline(count, ii, latency)}
}

// Instrument registers the engine's wait histogram in reg and attaches the
// trace recorder. Either argument may be nil.
func (a *AES) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	a.hWait = reg.Histogram("aes.pipe.wait")
	a.rec = rec
}

func (a *AES) issue(ready sim.Time) sim.Time {
	done, start := a.pipe.IssueStart(ready)
	a.hWait.Observe(uint64(start - ready))
	a.rec.Span("aes", "pad", uint64(start), uint64(done))
	return done
}

// GeneratePad schedules one 16-byte pad generation whose seed is known at
// `ready`, returning when the pad is available.
func (a *AES) GeneratePad(ready sim.Time) sim.Time { return a.issue(ready) }

// GenerateBlockPads schedules the four chunk pads of a 64-byte block (the
// seeds differ only in the chunk field, so all four issue as soon as the
// counter is known) and returns when the full 64-byte pad is ready.
func (a *AES) GenerateBlockPads(ready sim.Time) sim.Time {
	var done sim.Time
	for i := 0; i < 4; i++ {
		if d := a.issue(ready); d > done {
			done = d
		}
	}
	return done
}

// Issues reports the number of 16-byte operations issued.
func (a *AES) Issues() uint64 { return a.pipe.Issues() }

// Latency reports the engine's configured total latency.
func (a *AES) Latency() sim.Time { return a.pipe.Latency }

// Engines reports the engine count.
func (a *AES) Engines() int { return a.pipe.Engines() }

// Utilization is the engine bank's pipeline occupancy over [0, end).
func (a *AES) Utilization(end sim.Time) float64 { return a.pipe.Utilization(end) }

// SHA1 is the SHA-1 engine timing model used by baseline authentication.
type SHA1 struct {
	pipe *sim.Pipeline

	// Observability handles; nil-safe.
	hWait *obsv.Histogram
	rec   *obsv.Recorder
}

// SHA1Defaults are the paper's SHA-1 engine parameters.
const (
	SHA1Latency = 320
	SHA1Stages  = 32
)

// NewSHA1 builds a SHA-1 engine with the given total latency (80-640 in the
// paper's sweep); II scales with latency to keep the 32-stage pipeline.
func NewSHA1(count int, latency sim.Time) *SHA1 {
	ii := latency / SHA1Stages
	if ii == 0 {
		ii = 1
	}
	return &SHA1{pipe: sim.NewPipeline(count, ii, latency)}
}

// Instrument registers the engine's wait histogram in reg and attaches the
// trace recorder. Either argument may be nil.
func (s *SHA1) Instrument(reg *obsv.Registry, rec *obsv.Recorder) {
	s.hWait = reg.Histogram("sha.pipe.wait")
	s.rec = rec
}

// Hash schedules one block authentication whose input is complete at
// `ready` and returns when the digest is available. Unlike GCM, SHA-1
// cannot start until the whole block has arrived, which is exactly the
// latency disadvantage the paper exploits.
func (s *SHA1) Hash(ready sim.Time) sim.Time {
	done, start := s.pipe.IssueStart(ready)
	s.hWait.Observe(uint64(start - ready))
	s.rec.Span("sha", "hash", uint64(start), uint64(done))
	return done
}

// Issues reports the number of hashes issued.
func (s *SHA1) Issues() uint64 { return s.pipe.Issues() }

// Latency reports the configured digest latency.
func (s *SHA1) Latency() sim.Time { return s.pipe.Latency }

// Utilization is the engine's pipeline occupancy over [0, end).
func (s *SHA1) Utilization(end sim.Time) float64 { return s.pipe.Utilization(end) }

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
