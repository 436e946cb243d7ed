// Package config defines the full parameter space of the simulated secure
// processor and the presets matching Section 5 of the paper. A
// SystemConfig names one point in the evaluation space: one encryption
// scheme, one authentication scheme and requirement, the memory hierarchy
// geometry, and the crypto engine latencies.
package config

import (
	"fmt"

	"secmem/internal/cache"
)

// EncryptionMode selects how memory blocks are encrypted.
type EncryptionMode int

const (
	// EncNone disables encryption (used to isolate authentication cost).
	EncNone EncryptionMode = iota
	// EncDirect applies AES directly to data blocks (XOM-style); decryption
	// latency adds to the miss latency.
	EncDirect
	// EncCounterMono is counter mode with per-block monolithic counters of
	// MonoCounterBits bits.
	EncCounterMono
	// EncCounterSplit is the paper's split-counter mode: per-block minor
	// counters plus a per-page major counter.
	EncCounterSplit
	// EncCounterGlobal is counter mode with a single on-chip global counter;
	// per-block counter values are still stored in memory for decryption.
	EncCounterGlobal
	// EncCounterPredict is the counter-prediction baseline of Figure 6
	// (Shi et al. [16]): 64-bit per-block counters stored beside the data
	// instead of cached on-chip, predicted from a per-page base while the
	// block is fetched.
	EncCounterPredict
)

// String names the mode as the paper's figures do.
func (m EncryptionMode) String() string {
	switch m {
	case EncNone:
		return "none"
	case EncDirect:
		return "Direct"
	case EncCounterMono:
		return "Mono"
	case EncCounterSplit:
		return "Split"
	case EncCounterGlobal:
		return "Global"
	case EncCounterPredict:
		return "Pred"
	default:
		return fmt.Sprintf("EncryptionMode(%d)", int(m))
	}
}

// UsesCounters reports whether the mode keeps per-block counters in the
// counter store. The prediction baseline keeps its own.
func (m EncryptionMode) UsesCounters() bool {
	return m == EncCounterMono || m == EncCounterSplit || m == EncCounterGlobal
}

// AuthMode selects the memory authentication scheme.
type AuthMode int

const (
	// AuthNone disables authentication.
	AuthNone AuthMode = iota
	// AuthSHA1 uses SHA-1 MACs in the Merkle tree (the prior-work baseline).
	AuthSHA1
	// AuthGCM uses the paper's GCM (GHASH + AES pad) MACs.
	AuthGCM
)

// String names the mode.
func (m AuthMode) String() string {
	switch m {
	case AuthNone:
		return "none"
	case AuthSHA1:
		return "SHA"
	case AuthGCM:
		return "GCM"
	default:
		return fmt.Sprintf("AuthMode(%d)", int(m))
	}
}

// AuthReq is the authentication strictness requirement from Section 6.2.
type AuthReq int

const (
	// AuthLazy lets execution continue without waiting for authentication.
	AuthLazy AuthReq = iota
	// AuthCommit forwards data on decryption but blocks instruction
	// retirement until authentication completes.
	AuthCommit
	// AuthSafe blocks even data use until authentication completes.
	AuthSafe
)

// String names the requirement.
func (r AuthReq) String() string {
	switch r {
	case AuthLazy:
		return "lazy"
	case AuthCommit:
		return "commit"
	case AuthSafe:
		return "safe"
	default:
		return fmt.Sprintf("AuthReq(%d)", int(r))
	}
}

// SystemConfig is the complete description of one simulated machine. The
// parameters no experiment varies are constants of the packages that model
// them: the core's clock and issue width (cpu), the bus (bus), the memory
// latency (dram) and the AES engine's latency (engine).
type SystemConfig struct {
	// Core parameters (Section 5: a 3-issue out-of-order core).
	ROBSize int
	MSHRs   int

	// Memory hierarchy.
	L1           cache.Config
	L2           cache.Config
	CounterCache cache.Config
	// MemBytes is the protected data region size (512 MB in the paper);
	// metadata regions are laid out above it.
	MemBytes uint64

	// Crypto engines.
	AESEngines  int
	SHA1Latency uint64

	// Encryption scheme.
	Enc             EncryptionMode
	MonoCounterBits int // 8, 16, 32, or 64 (mono and global modes)
	MinorBits       int // split mode; 7 in the paper, beside a 64-bit major
	PageBlocks      int // blocks per encryption page; 64 -> 4 KB pages
	RSRs            int // re-encryption status registers; 8 in the paper
	// ChargeMonoReenc makes monolithic counter overflow actually perform
	// (and charge) whole-memory re-encryption instead of only counting it,
	// which is the paper's Figure 4 methodology for Mono8b.
	ChargeMonoReenc bool

	// Authentication scheme.
	Auth         AuthMode
	Req          AuthReq
	MACBits      int // 32, 64, or 128
	ParallelAuth bool
	// AuthenticateCounters applies the Section 4.3 fix: counter blocks are
	// authenticated when fetched on-chip.
	AuthenticateCounters bool
	// MacCacheBytes, when nonzero, gives Merkle tree nodes a dedicated
	// on-chip cache of this size instead of sharing the L2. The paper notes
	// that caching codes with data "can result in significantly increased
	// cache miss rates for data accesses"; this option quantifies the
	// trade (see the harness ablations).
	MacCacheBytes int

	// Functional enables real byte-level encryption/authentication against
	// the DRAM backing store (used by examples and correctness tests; the
	// big sweeps run timing-only).
	Functional bool
}

// Default returns the paper's baseline machine with the paper's preferred
// protection scheme (Split+GCM, commit requirement, parallel tree walk,
// 64-bit MACs, counters authenticated).
func Default() SystemConfig {
	return SystemConfig{
		ROBSize: 128,
		MSHRs:   16,
		L1: cache.Config{
			Name: "L1D", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 64, LatencyCycles: 2,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 1 << 20, Ways: 8, BlockBytes: 64, LatencyCycles: 10,
		},
		CounterCache: cache.Config{
			Name: "SNC", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64, LatencyCycles: 2,
		},
		MemBytes: 512 << 20,

		AESEngines:  1,
		SHA1Latency: 320,

		Enc:             EncCounterSplit,
		MonoCounterBits: 64,
		MinorBits:       7,
		PageBlocks:      64,
		RSRs:            8,

		Auth:                 AuthGCM,
		Req:                  AuthCommit,
		MACBits:              64,
		ParallelAuth:         true,
		AuthenticateCounters: true,
	}
}

// Baseline returns the unprotected machine (no encryption, no
// authentication) that IPC results are normalized against.
func Baseline() SystemConfig {
	c := Default()
	c.Enc = EncNone
	c.Auth = AuthNone
	c.AuthenticateCounters = false
	return c
}

// Validate checks the configuration for consistency.
func (c SystemConfig) Validate() error {
	if c.ROBSize <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("config: nonpositive core parameter")
	}
	for _, cc := range []cache.Config{c.L1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.Enc.UsesCounters() || c.Auth == AuthGCM {
		if err := c.CounterCache.Validate(); err != nil {
			return err
		}
	}
	if c.MemBytes == 0 || c.MemBytes%uint64(c.L2.BlockBytes) != 0 {
		return fmt.Errorf("config: memory size %d not block-aligned", c.MemBytes)
	}
	switch c.Enc {
	case EncCounterMono, EncCounterGlobal:
		switch c.MonoCounterBits {
		case 8, 16, 32, 64:
		default:
			return fmt.Errorf("config: monolithic counter bits %d not in {8,16,32,64}", c.MonoCounterBits)
		}
	case EncCounterPredict:
		if c.PageBlocks <= 0 {
			return fmt.Errorf("config: page blocks %d not positive", c.PageBlocks)
		}
		if c.Auth != AuthNone {
			return fmt.Errorf("config: the counter-prediction baseline runs without authentication")
		}
	}
	// GCM without counter-mode encryption keeps split counters too (the
	// Figure 7 and 8 machines), so their geometry is checked whenever the
	// counters are split.
	if c.Enc == EncCounterSplit || c.Auth == AuthGCM && !c.Enc.UsesCounters() {
		if c.MinorBits < 1 || c.MinorBits > 16 {
			return fmt.Errorf("config: minor counter bits %d out of range", c.MinorBits)
		}
		if c.PageBlocks <= 0 || c.PageBlocks&(c.PageBlocks-1) != 0 {
			return fmt.Errorf("config: page blocks %d not a power of two", c.PageBlocks)
		}
		if 64+c.PageBlocks*c.MinorBits > 512 {
			return fmt.Errorf("config: major+minors (%d bits) exceed one 512-bit counter block",
				64+c.PageBlocks*c.MinorBits)
		}
		if c.RSRs <= 0 {
			return fmt.Errorf("config: split counters need at least one RSR")
		}
	}
	if c.Auth != AuthNone {
		switch c.MACBits {
		case 32, 64, 128:
		default:
			return fmt.Errorf("config: MAC bits %d not in {32,64,128}", c.MACBits)
		}
	}
	if c.AESEngines <= 0 {
		return fmt.Errorf("config: AES engine count %d not positive", c.AESEngines)
	}
	if c.Auth == AuthSHA1 && c.SHA1Latency == 0 {
		return fmt.Errorf("config: SHA-1 auth with zero latency")
	}
	if c.MacCacheBytes != 0 {
		mc := c.macCacheConfig()
		if err := mc.Validate(); err != nil {
			return err
		}
	}
	if c.Auth != AuthNone && c.MacCacheBytes == 0 && c.L2.Ways < 2 {
		// A miss pins its demand block in the L2 while the block's Merkle
		// walk fills nodes into the same set.
		return fmt.Errorf("config: a %d-way L2 cannot hold Merkle nodes beside a pinned demand block", c.L2.Ways)
	}
	return nil
}

// macCacheConfig derives the dedicated MAC cache geometry.
func (c SystemConfig) macCacheConfig() cache.Config {
	return cache.Config{
		Name:          "MAC$",
		SizeBytes:     c.MacCacheBytes,
		Ways:          8,
		BlockBytes:    c.L2.BlockBytes,
		LatencyCycles: 2,
	}
}

// MacCacheConfig returns the dedicated MAC cache geometry and whether one
// is configured.
func (c SystemConfig) MacCacheConfig() (cache.Config, bool) {
	if c.MacCacheBytes == 0 {
		return cache.Config{}, false
	}
	return c.macCacheConfig(), true
}

// SchemeName is the figure-style label of the protection combination, e.g.
// "Split+GCM", "Mono8b", "Direct", "XOM+SHA".
func (c SystemConfig) SchemeName() string {
	enc := ""
	switch c.Enc {
	case EncNone:
		enc = ""
	case EncDirect:
		enc = "Direct"
	case EncCounterMono:
		enc = fmt.Sprintf("Mono%db", c.MonoCounterBits)
	case EncCounterSplit:
		enc = "Split"
	case EncCounterGlobal:
		enc = fmt.Sprintf("Global%db", c.MonoCounterBits)
	case EncCounterPredict:
		enc = "Pred"
	}
	auth := ""
	switch c.Auth {
	case AuthSHA1:
		auth = "SHA"
	case AuthGCM:
		auth = "GCM"
	}
	switch {
	case enc == "" && auth == "":
		return "base"
	case auth == "":
		return enc
	case enc == "":
		return auth
	default:
		return enc + "+" + auth
	}
}
