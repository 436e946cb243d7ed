package core

import (
	"math/rand"
	"testing"

	"secmem/internal/cache"
	"secmem/internal/config"
)

// machineHeader is the number of leading fuzz bytes that choose the
// machine; the rest is the operation stream.
const machineHeader = 6

// fuzzWindow is the span of data addresses the operations touch: 1024
// blocks, enough to overflow every drawn L2 and to spread Merkle walks
// over several subtrees.
const fuzzWindow = 64 << 10

// fuzzMachine decodes a machine from the fuzz header. The L1, an L2 that
// holds only data and a MAC cache go down to one way and one set. An L2
// that holds Merkle nodes keeps two ways, one for the pinned demand block,
// as Validate requires. So a fetched parent's authentication walk, which
// fills up to one node per tree level above it, can evict that parent
// before updateParentMac dirties it.
//
//	h[0]  L1:        ways 1<<(h&3), sets 1<<((h>>2)%6)
//	h[1]  L2:        ways 1<<(h&3), sets 1<<((h>>2)%8)
//	h[2]  MAC cache: on if h&0x80, ways 1<<(h&3), sets 1<<((h>>2)%5)
//	h[3]  encryption h&7 % 6, authentication (h>>3&3) % 3
//	h[4]  minor bits 2 + h%6; monolithic and global counters 16 bits if h&8, else 8
//	h[5]  serial tree walk if h&1, counters unauthenticated if h&2,
//	      MAC bits 64, 32, 128, 64 by (h>>2)&3
//
// It returns the configuration and the MAC cache to install in place of
// the configured one, nil when nodes share the L2. The configuration fixes
// the MAC cache at 8 ways; the fuzz swaps in its own geometry before the
// first access, when nothing refers to the cache yet.
func fuzzMachine(h []byte) (config.SystemConfig, *cache.Config) {
	cfg := smallCfg()
	cfg.MemBytes = 2 * fuzzWindow
	geo := func(name string, b byte, setsMod int) cache.Config {
		ways, sets := 1<<(b&3), 1<<(int(b>>2)%setsMod)
		return cache.Config{Name: name, SizeBytes: ways * sets * BlockSize, Ways: ways, BlockBytes: BlockSize, LatencyCycles: 2}
	}
	cfg.L1 = geo("L1D", h[0], 6)
	cfg.L2 = geo("L2", h[1], 8)
	cfg.L2.LatencyCycles = 10
	cfg.Enc = config.EncryptionMode(h[3] & 7 % 6)
	cfg.Auth = config.AuthMode(h[3] >> 3 & 3 % 3)
	if cfg.Enc == config.EncCounterPredict {
		cfg.Auth = config.AuthNone
	}
	cfg.MinorBits = 2 + int(h[4]%6)
	cfg.MonoCounterBits = 8
	if h[4]&8 != 0 {
		cfg.MonoCounterBits = 16
	}
	cfg.ParallelAuth = h[5]&1 == 0
	cfg.AuthenticateCounters = h[5]&2 == 0
	cfg.MACBits = [4]int{64, 32, 128, 64}[h[5]>>2&3]
	var mc *cache.Config
	if h[2]&0x80 != 0 && cfg.Auth != config.AuthNone {
		g := geo("MAC$", h[2], 5)
		mc = &g
		cfg.MacCacheBytes = 8 * BlockSize // replaced by mc
	}
	if cfg.Auth != config.AuthNone && mc == nil && cfg.L2.Ways == 1 {
		cfg.L2.Ways, cfg.L2.SizeBytes = 2, 2*cfg.L2.SizeBytes
	}
	return cfg, mc
}

// machineSeed encodes a header for fuzzMachine: log2 of each cache's ways
// and sets, macWays < 0 for nodes in the L2, and the header's last three
// bytes as given.
func machineSeed(l1Ways, l1Sets, l2Ways, l2Sets, macWays, macSets int, enc config.EncryptionMode, auth config.AuthMode, minor, flags byte) []byte {
	h := []byte{
		byte(l1Ways | l1Sets<<2),
		byte(l2Ways | l2Sets<<2),
		0,
		byte(int(enc) | int(auth)<<3),
		minor,
		flags,
	}
	if macWays >= 0 {
		h[2] = byte(0x80 | macWays | macSets<<2)
	}
	return h
}

// FuzzMachine runs honest functional workloads on fuzzed machines. Each
// operation is five bytes: a kind (write, read or Drain), a 16-bit start
// address in the first 64 KB, a length of 1 to 192 bytes, so a range can
// span four blocks at any alignment, and a signed step of the clock, which
// can move backwards. After every operation the bytes read match a shadow
// memory, no tamper is reported and every L1 block is in the L2; after a
// Drain no cache holds a dirty line.
func FuzzMachine(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	ops := func() []byte {
		b := make([]byte, 5*250)
		rng.Read(b)
		return b
	}
	// The geometries of TestHonestWorkloadNeverTrips (minor bits 3),
	// TestShadowConsistencyAcrossSchemes and TestInclusionProperty: smallCfg
	// is a 2-way 8-set L1 over a 4-way 32-set L2 with nodes in the L2; the
	// storm is a 1-way 8-set L1 over a 2-way 16-set L2, with nodes in the
	// L2 (a parent's walk evicts it there) and in a MAC cache. Then
	// TestMonoOverflowRebuildKeepsMacCacheNodes' 4 KB MAC cache (8 ways, 8
	// sets) and the smallest one, one set.
	seeds := [][]byte{
		machineSeed(1, 3, 2, 5, -1, 0, config.EncCounterSplit, config.AuthGCM, 1, 0),
		machineSeed(1, 3, 2, 5, -1, 0, config.EncCounterSplit, config.AuthGCM, 5, 0),
		machineSeed(1, 3, 2, 5, -1, 0, config.EncCounterSplit, config.AuthGCM, 5, 1<<2),
		machineSeed(1, 3, 2, 5, -1, 0, config.EncCounterMono, config.AuthSHA1, 5, 0),
		machineSeed(1, 3, 2, 5, -1, 0, config.EncDirect, config.AuthSHA1, 5, 0),
		machineSeed(1, 3, 2, 5, -1, 0, config.EncCounterGlobal, config.AuthGCM, 5, 0),
		machineSeed(0, 3, 1, 4, -1, 0, config.EncCounterSplit, config.AuthGCM, 5, 0),
		machineSeed(0, 3, 1, 4, 3, 3, config.EncCounterSplit, config.AuthGCM, 5, 0),
		machineSeed(1, 3, 2, 5, 3, 3, config.EncCounterMono, config.AuthGCM, 0, 0),
		machineSeed(1, 3, 2, 5, 0, 0, config.EncCounterSplit, config.AuthGCM, 0, 0),
	}
	for _, h := range seeds {
		f.Add(append(h, ops()...))
	}
	// Found by the fuzzer: on a 4-way L2 with a MAC cache, five operations
	// forward a Merkle node from the write-back buffer while the buffer
	// also holds an older copy of it, squashed by an earlier forward. A
	// forward that installs the oldest copy instead of the newest live one
	// reports false tampers here.
	f.Add([]byte("0.\xf00002Aa002\xb9\xaeX02\x900001000000\xae00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < machineHeader {
			return
		}
		cfg, mc := fuzzMachine(data[:machineHeader])
		m, err := NewMemSystem(cfg)
		if err != nil {
			t.Fatalf("machine %x: %v", data[:machineHeader], err)
		}
		if mc != nil {
			m.ctl.macCache = cache.New(*mc)
		}
		checkHonestOps(t, m, data[machineHeader:])
	})
}

// checkHonestOps runs the operation stream of FuzzMachine on m.
func checkHonestOps(t *testing.T, m *MemSystem, ops []byte) {
	t.Helper()
	var shadow [fuzzWindow + 256]byte
	var known [fuzzWindow + 256]bool
	buf := make([]byte, 192)
	now := int64(1 << 20)
	for i := 0; i+5 <= len(ops) && i < 5*300; i += 5 {
		op := ops[i : i+5]
		addr := uint64(op[1]) | uint64(op[2])<<8
		n := 1 + int(op[3])%192
		now += int64(int8(op[4])) * 37
		if now < 0 {
			now = 0
		}
		switch k := op[0] % 10; {
		case k < 5:
			b := buf[:n]
			for j := range b {
				b[j] = byte(i*7 + j*13 + 1)
			}
			if _, err := m.WriteBytes(uint64(now), addr, b); err != nil {
				t.Fatalf("op %d: write %#x+%d: %v", i/5, addr, n, err)
			}
			copy(shadow[addr:], b)
			for j := range b {
				known[addr+uint64(j)] = true
			}
		case k < 9:
			b := buf[:n]
			if _, err := m.ReadBytes(uint64(now), addr, b); err != nil {
				t.Fatalf("op %d: read %#x+%d: %v", i/5, addr, n, err)
			}
			for j, v := range b {
				if a := addr + uint64(j); known[a] && v != shadow[a] {
					t.Fatalf("op %d: read %#x+%d: byte %#x is %#x, want %#x", i/5, addr, n, a, v, shadow[a])
				}
			}
		default:
			m.Drain(uint64(now))
			for _, c := range []*cache.Cache{m.L1(), m.L2(), m.ctl.MacCache(), counterCache(m)} {
				if c == nil {
					continue
				}
				c.ForEach(func(a uint64, dirty bool) {
					if dirty {
						t.Fatalf("op %d: %#x still dirty after Drain", i/5, a)
					}
				})
			}
		}
		if n := m.ctl.Stats.TamperDetected; n != 0 {
			t.Fatalf("op %d: %d false tamper(s): %+v", i/5, n, m.ctl.Tampers())
		}
		m.L1().ForEach(func(a uint64, _ bool) {
			if !m.L2().Contains(a) {
				t.Fatalf("op %d: L1 block %#x is not in the L2", i/5, a)
			}
		})
	}
}

// counterCache returns the counter cache, or nil when no counters are kept.
func counterCache(m *MemSystem) *cache.Cache {
	if s := m.ctl.Counters(); s != nil {
		return s.Cache()
	}
	return nil
}
