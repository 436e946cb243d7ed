package core

import (
	"fmt"

	"secmem/internal/config"
	"secmem/internal/dram"
	"secmem/internal/engine"
	"secmem/internal/stats"
)

// OverheadReport summarizes the memory-space cost of a protection
// configuration — the Section 3 discussion ("only four 128-bit AES-based
// authentication codes can fit in a 64-byte block, which for a 1GB memory
// results in a 12-level Merkle tree that represents a 33% memory space
// overhead").
type OverheadReport struct {
	DataBytes    uint64
	CounterBytes uint64 // direct counters actually used by the scheme
	MacBytes     uint64
	DerivBytes   uint64
	TreeLevels   int
}

// TotalOverheadBytes is all metadata.
func (o OverheadReport) TotalOverheadBytes() uint64 {
	return o.CounterBytes + o.MacBytes + o.DerivBytes
}

// OverheadFraction is metadata over data.
func (o OverheadReport) OverheadFraction() float64 {
	return float64(o.TotalOverheadBytes()) / float64(o.DataBytes)
}

// Overhead computes the storage report for a configuration.
func Overhead(cfg config.SystemConfig) OverheadReport {
	lay := NewLayout(cfg)
	o := OverheadReport{DataBytes: lay.DataBytes}
	blocks := lay.DataBytes / BlockSize
	switch cfg.Enc {
	case config.EncCounterSplit:
		// One counter block per encryption page.
		o.CounterBytes = lay.DataBytes / uint64(cfg.PageBlocks)
	case config.EncCounterMono, config.EncCounterGlobal:
		bits := uint64(cfg.MonoCounterBits)
		if cfg.Enc == config.EncCounterGlobal {
			bits = 64 // stored decryption snapshots are full width
		}
		o.CounterBytes = blocks * bits / 8
	default:
		if cfg.Auth == config.AuthGCM {
			// Authentication-only GCM keeps split counters.
			o.CounterBytes = lay.DataBytes / uint64(cfg.PageBlocks)
		}
	}
	if lay.Geo != nil {
		o.MacBytes = lay.Geo.MacBytes()
		o.DerivBytes = lay.DerivBytes
		o.TreeLevels = lay.Geo.NumLevels()
	}
	return o
}

// OverheadTable renders storage overheads for a set of named schemes.
func OverheadTable(schemes map[string]config.SystemConfig, order []string) stats.Table {
	tbl := stats.Table{
		Title: "Memory space overhead by scheme",
		Cols:  []string{"scheme", "counters", "MACs", "deriv ctrs", "total", "of data", "tree levels"},
	}
	mb := func(b uint64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }
	for _, name := range order {
		o := Overhead(schemes[name])
		tbl.AddRow(name, mb(o.CounterBytes), mb(o.MacBytes), mb(o.DerivBytes),
			mb(o.TotalOverheadBytes()), stats.Pct(o.OverheadFraction()),
			fmt.Sprintf("%d", o.TreeLevels))
	}
	return tbl
}

// LatencyBreakdown reproduces Figure 1's L2-miss timelines analytically for
// a configuration: when the data arrives, when the decryption pad is ready,
// and when the plaintext is usable, for the three canonical cases (direct
// encryption, counter-cache hit, counter-cache miss).
type LatencyBreakdown struct {
	Case      string
	DataAt    uint64 // cycles after the miss
	PadAt     uint64
	UsableAt  uint64
	AuthTailC uint64 // extra cycles to authenticate after data+pad
}

// Figure1 computes the three timelines from a configuration's parameters
// (uncontended; queuing effects come from full simulation).
func Figure1(cfg config.SystemConfig) []LatencyBreakdown {
	mem := uint64(dram.LatencyCycles)
	aes := uint64(engine.AESLatency + 3*(engine.AESLatency/engine.AESStages)) // 4 pipelined chunk pads
	snc := cfg.CounterCache.LatencyCycles
	ghash := uint64(BlockSize/16) + 1
	return []LatencyBreakdown{
		{
			Case:     "direct encryption (Fig 1a)",
			DataAt:   mem,
			PadAt:    mem + aes, // decryption IS the AES, after arrival
			UsableAt: mem + aes,
		},
		{
			Case:      "counter mode, counter cache hit (Fig 1b)",
			DataAt:    mem,
			PadAt:     snc + aes,
			UsableAt:  max(mem, snc+aes) + 1,
			AuthTailC: ghash,
		},
		{
			Case:      "counter mode, counter cache miss (Fig 1c)",
			DataAt:    mem,
			PadAt:     snc + mem + aes, // counter fetch first
			UsableAt:  max(mem, snc+mem+aes) + 1,
			AuthTailC: ghash,
		},
	}
}

// Figure1Table renders the breakdown.
func Figure1Table(cfg config.SystemConfig) stats.Table {
	tbl := stats.Table{
		Title: "Figure 1: L2 miss timelines (uncontended cycles after the miss)",
		Cols:  []string{"case", "data arrives", "pad ready", "data usable", "GCM auth tail"},
	}
	for _, b := range Figure1(cfg) {
		tbl.AddRow(b.Case,
			fmt.Sprintf("%d", b.DataAt),
			fmt.Sprintf("%d", b.PadAt),
			fmt.Sprintf("%d", b.UsableAt),
			fmt.Sprintf("+%d", b.AuthTailC))
	}
	tbl.AddNote("counter-mode pad generation overlaps the fetch; direct encryption serializes after it")
	return tbl
}
