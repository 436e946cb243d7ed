package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refLine is one resident block of the reference model.
type refLine struct {
	addr          uint64
	way           int
	dirty, pinned bool
}

// refCache is the LRU oracle the cache is checked against: a map from block
// address to line plus, per set, a list in recency order (front = most
// recently used). It records the way each block occupies, so Line and the
// first-invalid-way rule are checked as well as the replacement order.
type refCache struct {
	cfg    Config
	sets   uint64
	lines  map[uint64]*list.Element // Value is *refLine
	recent []*list.List
	stats  Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	r := &refCache{cfg: cfg, sets: uint64(sets), lines: map[uint64]*list.Element{}}
	for i := 0; i < sets; i++ {
		r.recent = append(r.recent, list.New())
	}
	return r
}

func (r *refCache) block(addr uint64) uint64 { return addr &^ uint64(r.cfg.BlockBytes-1) }

func (r *refCache) set(addr uint64) uint64 { return addr / uint64(r.cfg.BlockBytes) % r.sets }

func (r *refCache) line(addr uint64) *refLine {
	if e, ok := r.lines[r.block(addr)]; ok {
		return e.Value.(*refLine)
	}
	return nil
}

func (r *refCache) lookup(addr uint64, write bool) bool {
	if write {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	e, ok := r.lines[r.block(addr)]
	if !ok {
		if write {
			r.stats.WriteMisses++
		} else {
			r.stats.ReadMisses++
		}
		return false
	}
	r.recent[r.set(addr)].MoveToFront(e)
	if write {
		e.Value.(*refLine).dirty = true
	}
	return true
}

// fill mirrors Cache.Fill for an absent block. It reports panics instead
// of panicking, and changes nothing when it does.
func (r *refCache) fill(addr uint64, dirty bool) (ev Eviction, evicted, panics bool) {
	blk := r.block(addr)
	if _, ok := r.lines[blk]; ok {
		return ev, false, true
	}
	l := r.recent[r.set(addr)]
	way := -1
	if l.Len() < r.cfg.Ways {
		// The first invalid way in way order takes the block.
		used := make([]bool, r.cfg.Ways)
		for e := l.Front(); e != nil; e = e.Next() {
			used[e.Value.(*refLine).way] = true
		}
		for way = 0; used[way]; way++ {
		}
	} else {
		// The least recently used unpinned line is the victim.
		var victim *list.Element
		for e := l.Back(); e != nil; e = e.Prev() {
			if !e.Value.(*refLine).pinned {
				victim = e
				break
			}
		}
		if victim == nil {
			return ev, false, true
		}
		v := victim.Value.(*refLine)
		ev, evicted, way = Eviction{Addr: v.addr, Dirty: v.dirty}, true, v.way
		r.stats.Evictions++
		if v.dirty {
			r.stats.DirtyEvicts++
		}
		l.Remove(victim)
		delete(r.lines, v.addr)
	}
	r.lines[blk] = l.PushFront(&refLine{addr: blk, way: way, dirty: dirty})
	r.stats.Fills++
	return ev, evicted, false
}

// lineIndex mirrors Cache.Line: set-major, way-minor.
func (r *refCache) lineIndex(addr uint64) int {
	if ln := r.line(addr); ln != nil {
		return int(r.set(addr))*r.cfg.Ways + ln.way
	}
	return -1
}

func (r *refCache) invalidate(addr uint64) (present, dirty bool) {
	e, ok := r.lines[r.block(addr)]
	if !ok {
		return false, false
	}
	ln := e.Value.(*refLine)
	r.recent[r.set(addr)].Remove(e)
	delete(r.lines, ln.addr)
	return true, ln.dirty
}

// full reports whether addr's set has no invalid way.
func (r *refCache) full(addr uint64) bool { return r.recent[r.set(addr)].Len() == r.cfg.Ways }

// Operations of the differential test.
const (
	opAccess = iota // Lookup, then Fill on a miss: the callers' usual pair
	opLookup        // Lookup alone
	opFill          // Fill alone, of a block that may be resident
	opPin
	opUnpin
	opSetDirty
	opCleanLine
	opInvalidate
	opContains
	opLine
	numOps
)

var opNames = [numOps]string{"access", "lookup", "fill", "pin", "unpin", "setdirty", "cleanline", "invalidate", "contains", "line"}

type cacheOp struct {
	kind int
	addr uint64
	flag bool // write for access/lookup, dirty for fill
}

func (o cacheOp) String() string { return fmt.Sprintf("%s(%#x, %v)", opNames[o.kind], o.addr, o.flag) }

// oracleBlock maps a pool index to a distinct block address. The pool is
// about twice the cache's lines, so sets conflict, and some tags carry bits
// above 32 to exercise the victim address reconstruction.
func oracleBlock(cfg Config, k int) uint64 {
	return uint64(k)*uint64(cfg.BlockBytes) | uint64(k%3)<<33
}

func oraclePool(cfg Config) int { return 2*cfg.SizeBytes/cfg.BlockBytes + 3 }

// oracleConfig builds the geometry with the given ways, sets and block size.
func oracleConfig(ways, sets, block int) Config {
	return Config{Name: "oracle", SizeBytes: ways * sets * block, Ways: ways, BlockBytes: block}
}

// fillRecover calls Fill and reports a panic instead of propagating it.
func fillRecover(c *Cache, addr uint64, dirty bool) (ev Eviction, evicted, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	ev, evicted = c.Fill(addr, dirty)
	return ev, evicted, false
}

// checkOracle runs ops against a Cache and the reference model, failing on
// the first return value or Stats that differ, then compares the resident
// contents and drains every set to compare the final recency order.
func checkOracle(t *testing.T, cfg Config, ops []cacheOp) {
	t.Helper()
	c, r := New(cfg), newRefCache(cfg)
	step := func(i int, o cacheOp) {
		t.Helper()
		fail := func(got, want any) {
			t.Helper()
			t.Fatalf("%s op %d %v: got %v, want %v", cfg.Name, i, o, got, want)
		}
		switch o.kind {
		case opAccess, opLookup:
			got, want := c.Lookup(o.addr, o.flag), r.lookup(o.addr, o.flag)
			if got != want {
				fail(got, want)
			}
			if o.kind == opLookup || got {
				break
			}
			fallthrough
		case opFill:
			if o.kind == opFill && r.line(o.addr) != nil && !r.full(o.addr) {
				// Fill's contract is an absent block. The panic for a
				// resident one is checked here only in a full set;
				// TestFillResidentPanics covers one behind an invalid way.
				return
			}
			ev, evicted, panicked := fillRecover(c, o.addr, o.flag)
			wev, wevicted, wpanics := r.fill(o.addr, o.flag)
			if ev != wev || evicted != wevicted || panicked != wpanics {
				fail(fmt.Sprintf("%+v evicted=%v panic=%v", ev, evicted, panicked),
					fmt.Sprintf("%+v evicted=%v panic=%v", wev, wevicted, wpanics))
			}
		case opPin, opUnpin, opSetDirty, opCleanLine:
			var got bool
			ln := r.line(o.addr)
			switch o.kind {
			case opPin:
				got = c.Pin(o.addr)
			case opUnpin:
				got = c.Unpin(o.addr)
			case opSetDirty:
				got = c.SetDirty(o.addr)
			case opCleanLine:
				got = c.CleanLine(o.addr)
			}
			if got != (ln != nil) {
				fail(got, ln != nil)
			}
			if ln != nil {
				switch o.kind {
				case opPin, opUnpin:
					ln.pinned = o.kind == opPin
				default:
					ln.dirty = o.kind == opSetDirty
				}
			}
		case opInvalidate:
			p, d := c.Invalidate(o.addr)
			wp, wd := r.invalidate(o.addr)
			if p != wp || d != wd {
				fail(fmt.Sprint(p, d), fmt.Sprint(wp, wd))
			}
		case opContains:
			if got, want := c.Contains(o.addr), r.line(o.addr) != nil; got != want {
				fail(got, want)
			}
		case opLine:
			if got, want := c.Line(o.addr), r.lineIndex(o.addr); got != want {
				fail(got, want)
			}
		}
		if c.Stats != r.stats {
			t.Fatalf("%s op %d %v: stats %+v, want %+v", cfg.Name, i, o, c.Stats, r.stats)
		}
	}
	for i, o := range ops {
		step(i, o)
	}

	got := map[uint64]bool{}
	c.ForEach(func(addr uint64, dirty bool) { got[addr] = dirty })
	if len(got) != len(r.lines) || c.ResidentBlocks() != len(r.lines) {
		t.Fatalf("%s: %d resident blocks (ResidentBlocks %d), want %d",
			cfg.Name, len(got), c.ResidentBlocks(), len(r.lines))
	}
	for addr, e := range r.lines {
		if d, ok := got[addr]; !ok || d != e.Value.(*refLine).dirty {
			t.Fatalf("%s: ForEach has %#x resident=%v dirty=%v, want dirty=%v",
				cfg.Name, addr, ok, d, e.Value.(*refLine).dirty)
		}
	}

	// Unpin everything, then push Ways fresh blocks through every set: each
	// eviction must come out in the oracle's recency order.
	n := len(ops)
	for addr := range r.lines {
		step(n, cacheOp{kind: opUnpin, addr: addr})
		n++
	}
	for s := 0; s < int(r.sets); s++ {
		for w := 0; w < cfg.Ways; w++ {
			fresh := (uint64(w)<<40 | 1<<50) + uint64(s*cfg.BlockBytes)
			step(n, cacheOp{kind: opFill, addr: fresh})
			n++
		}
	}
}

// randomOps draws n operations over the oracle pool. Accesses dominate, as
// in the simulator; pins are rarer than unpins so sets seldom fill with
// pinned lines, but the all-pinned panic still occurs in small sets.
func randomOps(cfg Config, rng *rand.Rand, n int) []cacheOp {
	weights := [numOps]int{opAccess: 40, opLookup: 8, opFill: 8, opPin: 5, opUnpin: 8,
		opSetDirty: 6, opCleanLine: 5, opInvalidate: 8, opContains: 6, opLine: 6}
	total := 0
	for _, w := range weights {
		total += w
	}
	pool := oraclePool(cfg)
	ops := make([]cacheOp, n)
	for i := range ops {
		pick, kind := rng.Intn(total), 0
		for pick >= weights[kind] {
			pick -= weights[kind]
			kind++
		}
		off := uint64(rng.Intn(cfg.BlockBytes))
		ops[i] = cacheOp{kind: kind, addr: oracleBlock(cfg, rng.Intn(pool)) + off, flag: rng.Intn(3) == 0}
	}
	return ops
}

// decodeOps turns fuzz bytes into a geometry and an operation sequence: the
// first byte picks ways (1, 2, 4, 8), sets (1 to 8) and block size (16 or
// 64); each following pair of bytes is one operation.
func decodeOps(data []byte) (Config, []cacheOp) {
	var g byte
	if len(data) > 0 {
		g, data = data[0], data[1:]
	}
	block := 16
	if g&0x20 != 0 {
		block = 64
	}
	cfg := oracleConfig(1<<(g&3), 1<<(g>>2&3), block)
	pool := oraclePool(cfg)
	var ops []cacheOp
	for ; len(data) >= 2; data = data[2:] {
		k := int(data[1]) % pool
		ops = append(ops, cacheOp{
			kind: int(data[0]&0x7f) % numOps,
			addr: oracleBlock(cfg, k) + uint64(data[0]>>4)%uint64(block),
			flag: data[0]&0x80 != 0,
		})
	}
	return cfg, ops
}

// TestCacheMatchesLRUOracle checks every return value and the Stats of the
// cache against the reference model over random operation sequences, at
// every associativity the simulator uses and several set counts.
func TestCacheMatchesLRUOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for _, sets := range []int{1, 4, 32} {
			for _, block := range []int{16, 64} {
				cfg := oracleConfig(ways, sets, block)
				cfg.Name = fmt.Sprintf("w%d-s%d-b%d", ways, sets, block)
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed*100 + int64(ways*sets)))
					checkOracle(t, cfg, randomOps(cfg, rng, 4000))
				}
			}
		}
	}
}

// FuzzCacheOracle runs fuzzed operation sequences through the same
// differential check.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x00, 0x01, 0x00, 0x02, 0x03, 0x05, 0x00, 0x01, 0x02, 0x07})
	rng := rand.New(rand.NewSource(1))
	for _, g := range []byte{0x01, 0x06, 0x2b, 0x2f} {
		seed := make([]byte, 1+2*300)
		rng.Read(seed)
		seed[0] = g
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ops := decodeOps(data)
		checkOracle(t, cfg, ops)
	})
}
