// bench_speed_test.go holds the raw-speed benchmarks: kernel-level
// benchmarks for the crypto primitives (AES block, GHASH, pad generation,
// MAC), with the AES and GHASH fast paths each paired with the oracle it
// replaced so a run prints the speedup directly, and one functional
// Figure 4 campaign (BenchmarkCampaignFig4), which has no oracle.
// Simulated instructions per second on the default machine is
// BenchmarkSimulatorThroughput in bench_test.go.
//
// `go test -bench 'AESBlock|GHASH' -run '^$' .` prints each fast/oracle
// pair side by side. The kernel timings with their spread, and the
// end-to-end speed figures, come from the benchmark in bench/
// (`bash bench/run.sh`).
package secmem_test

import (
	"math/rand"
	"testing"

	"secmem/internal/aescipher"
	"secmem/internal/gcmmode"
	"secmem/internal/gf128"
	"secmem/internal/harness"
)

func speedKey() []byte {
	key := make([]byte, 16)
	rng := rand.New(rand.NewSource(7))
	rng.Read(key)
	return key
}

// BenchmarkAESBlock measures one 16-byte block encryption on the T-table
// fast path (what every pad generation pays).
func BenchmarkAESBlock(b *testing.B) {
	c := aescipher.MustNew(speedKey())
	var in, out [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(out[:], in[:])
		in = out
	}
}

// BenchmarkAESBlockOracle measures the byte-wise FIPS-197 reference rounds
// the fast path is pinned against. The ratio to BenchmarkAESBlock is the
// T-table speedup.
func BenchmarkAESBlockOracle(b *testing.B) {
	c := aescipher.MustNew(speedKey())
	var in, out [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.EncryptOracle(out[:], in[:])
		in = out
	}
}

// BenchmarkGHASHTable measures table-driven GHASH over 1 KiB of ciphertext
// (64 block multiplies through the production 8-bit Shoup table).
func BenchmarkGHASHTable(b *testing.B) {
	var h [16]byte
	rand.New(rand.NewSource(11)).Read(h[:])
	tbl := gf128.NewProductTable8(gf128.FromBytes(h[:]))
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(13)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		gf128.GHASHTable8(&tbl, nil, buf)
	}
}

// BenchmarkGHASHSerial measures the same 1 KiB hash through the bit-serial
// oracle multiply (Element.Mul, the multiply gf128.GHASH uses).
// The ratio to BenchmarkGHASHTable is the table speedup.
func BenchmarkGHASHSerial(b *testing.B) {
	var hb [16]byte
	rand.New(rand.NewSource(11)).Read(hb[:])
	h := gf128.FromBytes(hb[:])
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(13)).Read(buf)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		var y gf128.Element
		for off := 0; off < len(buf); off += 16 {
			y = y.Xor(gf128.FromBytes(buf[off : off+16])).Mul(h)
		}
	}
}

// BenchmarkEncryptBlock measures counter-mode encryption of one 64-byte
// memory block — four pad generations plus the XOR, the per-transfer cost
// of every protected fill and write-back.
func BenchmarkEncryptBlock(b *testing.B) {
	p := gcmmode.NewPadGen(aescipher.MustNew(speedKey()), 0, 1)
	src := make([]byte, gcmmode.MemBlockSize)
	dst := make([]byte, gcmmode.MemBlockSize)
	b.SetBytes(gcmmode.MemBlockSize)
	for i := 0; i < b.N; i++ {
		p.EncryptBlock(dst, src, uint64(i)<<6, 1)
	}
}

// BenchmarkMAC64 measures GCM MAC generation (GHASH over one 64-byte block
// plus one pad encryption) at the paper's default 64-bit MAC size.
func BenchmarkMAC64(b *testing.B) {
	p := gcmmode.NewPadGen(aescipher.MustNew(speedKey()), 0, 1)
	ct := make([]byte, gcmmode.MemBlockSize)
	rand.New(rand.NewSource(17)).Read(ct)
	b.SetBytes(gcmmode.MemBlockSize)
	for i := 0; i < b.N; i++ {
		p.MAC(ct, uint64(i)<<6, 1, 64)
	}
}

// BenchmarkCampaignFig4 measures the wall time of a full reduced Figure 4
// campaign (six encryption schemes × three workloads) with the functional
// crypto layer on, so every simulated transfer pays real pad generation
// and tree maintenance. This is the end-to-end number the kernel
// optimizations exist to improve; the figure campaigns themselves run
// timing-only and are crypto-free by construction.
func BenchmarkCampaignFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.New(harness.Options{
			Instructions: 300_000,
			Seed:         1,
			Benches:      []string{"swim", "mcf", "crafty"},
			Functional:   true,
		})
		r.Fig4()
	}
}
