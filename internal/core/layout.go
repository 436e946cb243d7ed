// Package core implements the paper's contribution: the secure memory
// controller that sits between the L2 cache and main memory, combining
// split-counter-mode encryption (Section 2), GCM authentication over a
// Merkle tree covering data and direct counters (Sections 3 and 4.3), RSR-
// driven background page re-encryption (Section 4.2), and the prior-work
// comparison points (direct AES, monolithic counters, SHA-1 trees, lazy/
// commit/safe requirements).
//
// The controller exists in two entangled halves. The timing half reserves
// bus, DRAM, and crypto-engine resources on shared timelines and returns
// data-ready and authentication-done cycles for every L2 miss and write-
// back. The functional half (optional, Config.Functional) moves real bytes:
// AES pads, GHASH MACs, packed counter blocks, a Merkle root register — so
// tampering with the simulated DRAM is genuinely detected. Both halves share
// the same presence/dirty decisions, so functional state always agrees with
// what the timing model believes is on-chip.
package core

import (
	"fmt"

	"secmem/internal/config"
	"secmem/internal/counterstore"
	"secmem/internal/merkle"
)

// BlockSize is the block granularity of the whole memory system.
const BlockSize = 64

// Layout is the physical address map of the protected memory:
//
//	[0, DataBytes)             program data
//	[DirectBase, +DirectBytes) direct counters (leaf-protected, Section 4.3)
//	[MacBase, MacEnd)          Merkle MAC levels (when authentication is on)
//	[DerivBase, +DerivBytes)   derivative counters for metadata blocks
//
// The Merkle leaf space is data plus direct counters, so counter replay is
// caught by the tree. Derivative counters sit outside the tree: the paper
// notes their integrity cannot affect data secrecy, and a tampered
// derivative counter still breaks its node's MAC against the parent.
type Layout struct {
	DataBytes   uint64
	DirectBase  uint64
	DirectBytes uint64
	MacBase     uint64
	DerivBase   uint64
	DerivBytes  uint64
	TotalBytes  uint64
	// Geo is the Merkle geometry, nil when authentication is disabled.
	Geo *merkle.Geometry
}

// NewLayout computes the address map for a system configuration.
func NewLayout(cfg config.SystemConfig) Layout {
	l := Layout{DataBytes: cfg.MemBytes}
	l.DirectBase = l.DataBytes
	// Reserve the densest organization's footprint (64-bit monolithic
	// counters: 1/8 of data) so the map does not depend on the counter
	// organization under study.
	l.DirectBytes = l.DataBytes / 8
	leaf := l.DirectBase + l.DirectBytes
	l.MacBase = leaf
	macEnd := leaf
	if cfg.Auth != config.AuthNone {
		l.Geo = merkle.NewGeometry(leaf, leaf, cfg.MACBits)
		macEnd = l.Geo.End()
	}
	l.DerivBase = macEnd
	// One 16-bit derivative counter per metadata block (counter blocks and
	// MAC blocks): 2 bytes per 64, a 32nd of the metadata span.
	l.DerivBytes = (macEnd - l.DirectBase) / 32
	l.TotalBytes = l.DerivBase + l.DerivBytes
	// Round up to a block multiple for the DRAM model.
	if r := l.TotalBytes % BlockSize; r != 0 {
		l.TotalBytes += BlockSize - r
	}
	return l
}

// Regions adapts the layout for the counter store.
func (l Layout) Regions() counterstore.Regions {
	return counterstore.Regions{
		DataBytes:  l.DataBytes,
		DirectBase: l.DirectBase,
		DerivBase:  l.DerivBase,
	}
}

// RegionOf classifies a block address.
func (l Layout) RegionOf(addr uint64) Region {
	switch {
	case addr < l.DataBytes:
		return RegionData
	case addr < l.DirectBase+l.DirectBytes:
		return RegionCounter
	case addr < l.DerivBase && l.Geo != nil && addr >= l.MacBase:
		return RegionMac
	case addr >= l.DerivBase && addr < l.DerivBase+l.DerivBytes:
		return RegionDeriv
	default:
		panic(fmt.Sprintf("core: address %#x in no region", addr))
	}
}

// Region names a part of the address map.
type Region int

// Address map regions.
const (
	RegionData Region = iota
	RegionCounter
	RegionMac
	RegionDeriv
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionCounter:
		return "counter"
	case RegionMac:
		return "mac"
	case RegionDeriv:
		return "deriv"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}
