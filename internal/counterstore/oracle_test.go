package counterstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refStore is the reference model the store is checked against: counters
// kept in maps keyed by block address, and counter blocks serialized bit by
// bit. It mirrors the store's contract for every organization, including
// the counter-block layout PackBlock promises.
type refStore struct {
	cfg Config

	minors map[uint64]uint64 // split: data block addr -> minor value
	majors map[uint64]uint64 // split: page addr -> major value
	values map[uint64]uint64 // mono/global/derivative: block addr -> value
	global uint64

	incr     map[uint64]uint64 // data block addr -> write-back count
	maxIncr  uint64
	maxBlock uint64

	stats Stats
}

func newRefStore(cfg Config) *refStore {
	return &refStore{
		cfg:    cfg,
		minors: map[uint64]uint64{},
		majors: map[uint64]uint64{},
		values: map[uint64]uint64{},
		incr:   map[uint64]uint64{},
	}
}

func (r *refStore) isMeta(addr uint64) bool { return addr >= r.cfg.Regions.DirectBase }

func (r *refStore) pageAddr(addr uint64) uint64 {
	pageBytes := uint64(r.cfg.PageBlocks) * BlockSize
	return addr / pageBytes * pageBytes
}

func (r *refStore) counterBits() int {
	if r.cfg.Org == OrgGlobal {
		return 64
	}
	return r.cfg.Bits
}

func (r *refStore) value(addr uint64) uint64 {
	if !r.isMeta(addr) && r.cfg.Org == OrgSplit {
		return r.majors[r.pageAddr(addr)]<<uint(r.cfg.MinorBits) | r.minors[addr]
	}
	return r.values[addr]
}

func (r *refStore) valueWithMajor(addr, major uint64) uint64 {
	return major<<uint(r.cfg.MinorBits) | r.minors[addr]
}

func (r *refStore) increment(addr uint64) (uint64, Overflow) {
	if r.isMeta(addr) {
		r.values[addr] = (r.values[addr] + 1) & (1<<derivBits - 1)
		r.stats.DerivIncrements++
		return r.values[addr], Overflow{}
	}
	r.stats.Increments++
	if addr < r.cfg.Regions.DataBytes {
		n := r.incr[addr] + 1
		r.incr[addr] = n
		if n > r.maxIncr {
			r.maxIncr, r.maxBlock = n, addr
		}
	}
	switch r.cfg.Org {
	case OrgSplit:
		m := r.minors[addr] + 1
		if m >= 1<<uint(r.cfg.MinorBits) {
			r.stats.MinorOverflows++
			r.minors[addr] = 0
			return r.value(addr), Overflow{Kind: PageOverflow, PageAddr: r.pageAddr(addr)}
		}
		r.minors[addr] = m
		return r.value(addr), Overflow{}
	case OrgGlobal:
		r.global++
		ov := Overflow{}
		if r.cfg.Bits < 64 && r.global >= 1<<uint(r.cfg.Bits) {
			r.global = 0
			r.stats.FullOverflows++
			ov.Kind = FullOverflow
		}
		r.values[addr] = r.global
		return r.global, ov
	default:
		v := r.values[addr] + 1
		if r.cfg.Bits < 64 && v >= 1<<uint(r.cfg.Bits) {
			r.values[addr] = 0
			r.stats.FullOverflows++
			return 0, Overflow{Kind: FullOverflow}
		}
		r.values[addr] = v
		return v, Overflow{}
	}
}

func (r *refStore) bumpMajor(page uint64) (uint64, uint64) {
	old := r.majors[page]
	r.majors[page] = old + 1
	return old, old + 1
}

// fields lists, in image order, the map and key of every counter the
// counter block at ctrBlock holds, with each counter's width in bits.
func (r *refStore) fields(ctrBlock uint64) (m []map[uint64]uint64, keys []uint64, widths []uint) {
	add := func(mp map[uint64]uint64, key uint64, w int) {
		m, keys, widths = append(m, mp), append(keys, key), append(widths, uint(w))
	}
	rg := r.cfg.Regions
	if ctrBlock >= rg.DerivBase {
		first := rg.DirectBase + (ctrBlock-rg.DerivBase)/BlockSize*derivPerBlock*BlockSize
		for i := uint64(0); i < derivPerBlock; i++ {
			add(r.values, first+i*BlockSize, derivBits)
		}
		return
	}
	idx := (ctrBlock - rg.DirectBase) / BlockSize
	if r.cfg.Org == OrgSplit {
		page := idx * uint64(r.cfg.PageBlocks) * BlockSize
		add(r.majors, page, 64)
		for i := uint64(0); i < uint64(r.cfg.PageBlocks); i++ {
			add(r.minors, page+i*BlockSize, r.cfg.MinorBits)
		}
		return
	}
	perBlock := uint64(512 / r.counterBits())
	for i := uint64(0); i < perBlock; i++ {
		add(r.values, (idx*perBlock+i)*BlockSize, r.counterBits())
	}
	return
}

// pack serializes the counter block bit by bit, most significant bit
// first, each counter truncated to its width; bits past the last counter
// stay zero.
func (r *refStore) pack(ctrBlock uint64) [BlockSize]byte {
	var out [BlockSize]byte
	pos := uint(0)
	m, keys, widths := r.fields(ctrBlock)
	for k := range keys {
		v := m[k][keys[k]]
		for i := int(widths[k]) - 1; i >= 0; i-- {
			if v>>uint(i)&1 == 1 {
				out[pos/8] |= 1 << (7 - pos%8)
			}
			pos++
		}
	}
	return out
}

func (r *refStore) unpack(ctrBlock uint64, img []byte) {
	pos := uint(0)
	m, keys, widths := r.fields(ctrBlock)
	for k := range keys {
		var v uint64
		for i := uint(0); i < widths[k]; i++ {
			v = v<<1 | uint64(img[pos/8]>>(7-pos%8)&1)
			pos++
		}
		m[k][keys[k]] = v
	}
}

// sortedVisits lists write-back counts in ascending block order.
func sortedVisits(counts map[uint64]uint64) [][2]uint64 {
	var out [][2]uint64
	for a, n := range counts {
		out = append(out, [2]uint64{a, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Operations of the differential test.
const (
	opIncData      = iota // Increment of a data block
	opIncMeta             // Increment of a metadata block (derivative counter)
	opValue               // Value of a data or metadata block
	opValueWithMaj        // ValueWithMajor (split)
	opMajor               // Major (split)
	opBumpMajor           // BumpMajor (split)
	opResetMinor          // ResetMinor (split)
	opPack                // PackBlock of a counter block
	opUnpack              // UnpackBlock of a random image
	opUnpackPacked        // UnpackBlock of a packed image with one byte changed
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"inc-data", "inc-meta", "value", "value-with-major",
	"major", "bump-major", "reset-minor", "pack", "unpack", "unpack-packed"}

type storeOp struct {
	kind int
	addr uint64 // block for reads and increments; counter block for pack/unpack
	arg  uint64 // major for ValueWithMajor; image seed for the unpacks
}

func (o storeOp) String() string {
	return fmt.Sprintf("%s(%#x, %#x)", storeOpNames[o.kind], o.addr, o.arg)
}

// oracleRegions spaces the regions widely: the address pools below reach
// counter blocks past the first few thousand in both counter regions.
func oracleRegions() Regions {
	return Regions{DataBytes: 1 << 30, DirectBase: 1 << 30, DerivBase: 10 << 27}
}

// oracleGeometries lists the split geometries at every minor width, each
// with the largest power-of-two page that fits one counter block, the page
// sizes of the page-size ablation, and the monolithic and global widths.
func oracleGeometries() []Config {
	var cfgs []Config
	for w := 1; w <= 16; w++ {
		pb := 1
		for 64+2*pb*w <= 512 {
			pb *= 2
		}
		cfgs = append(cfgs, Config{Org: OrgSplit, MinorBits: w, PageBlocks: pb})
	}
	// The page-size ablation's 64- and 128-block pages are the 7- and 3-bit
	// rows above; its smaller pages keep 7-bit minors.
	for _, pb := range []int{16, 32} {
		cfgs = append(cfgs, Config{Org: OrgSplit, MinorBits: 7, PageBlocks: pb})
	}
	for _, org := range []Org{OrgMono, OrgGlobal} {
		for _, bits := range []int{8, 16, 32, 64} {
			cfgs = append(cfgs, Config{Org: org, Bits: bits})
		}
	}
	for i := range cfgs {
		cfgs[i].Regions = oracleRegions()
		cfgs[i].Cache = snc()
	}
	return cfgs
}

func geometryName(c Config) string {
	switch c.Org {
	case OrgSplit:
		return fmt.Sprintf("split-m%d-p%d", c.MinorBits, c.PageBlocks)
	case OrgMono:
		return fmt.Sprintf("mono%d", c.Bits)
	default:
		return fmt.Sprintf("global%d", c.Bits)
	}
}

// dataPerCounterBlock is the number of data blocks one direct counter block
// covers.
func dataPerCounterBlock(c Config) uint64 {
	switch c.Org {
	case OrgSplit:
		return uint64(c.PageBlocks)
	case OrgMono:
		return uint64(512 / c.Bits)
	default:
		return 8
	}
}

// Counter-block indices the pools draw from, in either counter region:
// neighbours, both sides of 512- and 1024-block boundaries, and a far one.
var oracleCounterBlocks = []uint64{0, 1, 2, 511, 512, 513, 1023, 1024, 4099}

// oracleAddr draws a block from the pools. A data block is the first, the
// last or any block covered by a pooled counter block; a metadata block is
// the first, the last or any block whose derivative counter a pooled
// derivative block holds; a counter block is a pooled one of either region.
// pick (from 0 to 2) selects the first, the last or the one at off.
func oracleAddr(c Config, kind int, cb, pick, off uint64) uint64 {
	rg := c.Regions
	per := dataPerCounterBlock(c)
	base, first := uint64(0), cb*per
	switch kind {
	case opIncMeta:
		base, per, first = rg.DirectBase, derivPerBlock, cb*derivPerBlock
	case opPack, opUnpack, opUnpackPacked:
		if pick == 0 {
			return rg.DerivBase + cb*BlockSize
		}
		return rg.DirectBase + cb*BlockSize
	}
	slot := off % per
	switch pick {
	case 0:
		slot = 0
	case 1:
		slot = per - 1
	}
	return base + (first+slot)*BlockSize
}

// oracleImage is a pseudo-random counter-block image drawn from seed. For
// even seeds every byte but one is 0xFF, so most counters it holds wrap or
// overflow at their next increment.
func oracleImage(seed uint64) [BlockSize]byte {
	var img [BlockSize]byte
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Read(img[:])
	if seed%2 == 0 {
		k := img[0] % BlockSize
		for i := range img {
			if i != int(k) {
				img[i] = 0xFF
			}
		}
	}
	return img
}

func splitOnly(kind int) bool { return kind >= opValueWithMaj && kind <= opResetMinor }

// randomStoreOps draws n operations. Three in four data increments go to
// three hot blocks, so minors and narrow counters overflow.
func randomStoreOps(c Config, rng *rand.Rand, n int) []storeOp {
	weights := [numStoreOps]int{opIncData: 500, opIncMeta: 120, opValue: 120, opValueWithMaj: 40,
		opMajor: 30, opBumpMajor: 30, opResetMinor: 20, opPack: 80, opUnpack: 30, opUnpackPacked: 30}
	if c.Org != OrgSplit {
		for k := range weights {
			if splitOnly(k) {
				weights[k] = 0
			}
		}
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	pool := oracleCounterBlocks
	hot := []uint64{oracleAddr(c, opIncData, 0, 0, 0), oracleAddr(c, opIncData, 511, 1, 0),
		oracleAddr(c, opIncData, 1024, 2, 5)}
	ops := make([]storeOp, n)
	for i := range ops {
		pick, kind := rng.Intn(total), 0
		for pick >= weights[kind] {
			pick -= weights[kind]
			kind++
		}
		o := storeOp{kind: kind, arg: rng.Uint64()}
		addrKind := kind
		if kind == opValue && rng.Intn(3) == 0 {
			addrKind = opIncMeta
		}
		o.addr = oracleAddr(c, addrKind, pool[rng.Intn(len(pool))], uint64(rng.Intn(3)), rng.Uint64())
		if kind == opIncData && rng.Intn(4) != 0 {
			o.addr = hot[rng.Intn(len(hot))]
		}
		ops[i] = o
	}
	return ops
}

// decodeStoreOps turns fuzz bytes into a geometry and an operation
// sequence: the first byte picks the geometry, and each following group of
// three bytes is one operation (kind, pooled counter block and position
// within it, image seed or major).
func decodeStoreOps(data []byte) (Config, []storeOp) {
	geos := oracleGeometries()
	var g byte
	if len(data) > 0 {
		g, data = data[0], data[1:]
	}
	c := geos[int(g)%len(geos)]
	var ops []storeOp
	for ; len(data) >= 3; data = data[3:] {
		kind := int(data[0]) % numStoreOps
		if c.Org != OrgSplit && splitOnly(kind) {
			kind = opIncData
		}
		addrKind := kind
		if kind == opValue && data[0]&0x80 != 0 {
			addrKind = opIncMeta
		}
		cb := oracleCounterBlocks[int(data[1])%len(oracleCounterBlocks)]
		ops = append(ops, storeOp{
			kind: kind,
			addr: oracleAddr(c, addrKind, cb, uint64(data[1]>>4)%3, uint64(data[2])),
			arg:  uint64(data[2]),
		})
	}
	return c, ops
}

// checkStoreOracle runs ops against a Store and the reference model. After
// every operation it compares the operation's return values, Stats,
// FastestCounter and the write-back counts ForEachIncrement visits, which
// must come in ascending block order; at the
// end it compares every pooled counter's value and every pooled counter
// block's image. It returns the largest write-back count the ops reached.
func checkStoreOracle(t *testing.T, c Config, ops []storeOp) (fastest uint64) {
	t.Helper()
	s, r := New(c), newRefStore(c)
	name := geometryName(c)
	visited := map[uint64]uint64{}
	for i, o := range ops {
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("%s op %d %v: %s %v, want %v", name, i, o, what, got, want)
		}
		switch o.kind {
		case opIncData, opIncMeta:
			v, ov := s.Increment(o.addr)
			wv, wov := r.increment(o.addr)
			if v != wv || ov != wov {
				fail("increment", fmt.Sprint(v, ov), fmt.Sprint(wv, wov))
			}
		case opValue:
			if got, want := s.Value(o.addr), r.value(o.addr); got != want {
				fail("value", got, want)
			}
		case opValueWithMaj:
			if got, want := s.ValueWithMajor(o.addr, o.arg), r.valueWithMajor(o.addr, o.arg); got != want {
				fail("value with major", got, want)
			}
		case opMajor:
			page := s.PageAddr(o.addr)
			if got, want := s.Major(page), r.majors[page]; got != want {
				fail("major", got, want)
			}
		case opBumpMajor:
			page := s.PageAddr(o.addr)
			old, nw := s.BumpMajor(page)
			wold, wnw := r.bumpMajor(page)
			if old != wold || nw != wnw {
				fail("bump", fmt.Sprint(old, nw), fmt.Sprint(wold, wnw))
			}
		case opResetMinor:
			s.ResetMinor(o.addr)
			r.minors[o.addr] = 0
		case opPack:
			if got, want := s.PackBlock(o.addr), r.pack(o.addr); got != want {
				fail("image", fmt.Sprintf("%x", got), fmt.Sprintf("%x", want))
			}
		case opUnpack, opUnpackPacked:
			img := oracleImage(o.arg)
			if o.kind == opUnpackPacked {
				packed := r.pack(o.addr)
				packed[o.arg%BlockSize] = img[0]
				img = packed
			}
			s.UnpackBlock(o.addr, img[:])
			r.unpack(o.addr, img[:])
		}
		if s.Stats != r.stats {
			fail("stats", fmt.Sprintf("%+v", s.Stats), fmt.Sprintf("%+v", r.stats))
		}
		n, blk := s.FastestCounter()
		if n != r.maxIncr || blk != r.maxBlock {
			fail("fastest", fmt.Sprint(n, blk), fmt.Sprint(r.maxIncr, r.maxBlock))
		}
		clear(visited)
		same, last := true, uint64(0)
		s.ForEachIncrement(func(a, n uint64) {
			_, twice := visited[a]
			visited[a] = n
			same = same && !twice && r.incr[a] == n && (len(visited) == 1 || a > last)
			last = a
		})
		if !same || len(visited) != len(r.incr) {
			fail("increment visits", sortedVisits(visited), sortedVisits(r.incr))
		}
	}
	for _, cb := range oracleCounterBlocks {
		for pick := uint64(0); pick < 3; pick++ {
			for _, kind := range []int{opIncData, opIncMeta} {
				a := oracleAddr(c, kind, cb, pick, 7)
				if got, want := s.Value(a), r.value(a); got != want {
					t.Fatalf("%s: final value of %#x = %d, want %d", name, a, got, want)
				}
			}
			a := oracleAddr(c, opPack, cb, pick, 0)
			if got, want := s.PackBlock(a), r.pack(a); got != want {
				t.Fatalf("%s: final image of %#x = %x, want %x", name, a, got, want)
			}
		}
	}
	return r.maxIncr
}

// TestStoreMatchesOracle checks the store against the reference model over
// random operation sequences on every geometry the simulator can build. On
// each geometry a hot block's write-back count must pass wideCount, so the
// counts kept in the wide table are checked too.
func TestStoreMatchesOracle(t *testing.T) {
	for gi, c := range oracleGeometries() {
		var fastest uint64
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(gi)))
			fastest = max(fastest, checkStoreOracle(t, c, randomStoreOps(c, rng, 2500)))
		}
		if fastest <= wideCount {
			t.Errorf("%s: the largest write-back count is %d; no block passed %d", geometryName(c), fastest, wideCount)
		}
	}
}

// FuzzStoreOracle runs fuzzed geometries and operation sequences through
// the same differential check.
func FuzzStoreOracle(f *testing.F) {
	f.Add([]byte{0x00})
	// The default geometry, with the first data blocks of counter blocks 0
	// and 1024 written back 300 times each: both counts pass wideCount.
	for g, c := range oracleGeometries() {
		if geometryName(c) == "split-m7-p64" {
			seed := []byte{byte(g)}
			for i := 0; i < 300; i++ {
				seed = append(seed, opIncData, 0, 0, opIncData, 7, 0)
			}
			f.Add(seed)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for g := range oracleGeometries() {
		if g%4 != 0 {
			continue
		}
		seed := make([]byte, 1+3*200)
		rng.Read(seed)
		seed[0] = byte(g)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ops := decodeStoreOps(data)
		checkStoreOracle(t, c, ops)
	})
}
