package dram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func funcDRAM() *DRAM { return New(1<<20, true) }

// timingDRAM is the paper's 512 MB memory without a backing store.
func timingDRAM() *DRAM { return New(512<<20, false) }

// TestTimingLatency pins the Section 5 memory: a 200-cycle round trip,
// with the device's 16-cycle service interval between accesses.
func TestTimingLatency(t *testing.T) {
	d := timingDRAM()
	if got := d.AccessRead(1000); got != 1200 {
		t.Errorf("read done = %d, want 1200", got)
	}
	// Device-side service interval staggers same-cycle accesses.
	if got := d.AccessRead(1000); got != 1216 {
		t.Errorf("second read done = %d, want 1216", got)
	}
	if d.Reads != 2 {
		t.Errorf("reads = %d", d.Reads)
	}
}

func TestFunctionalStore(t *testing.T) {
	d := funcDRAM()
	buf := make([]byte, BlockSize)
	d.ReadBlock(0x1000, buf)
	if !bytes.Equal(buf, make([]byte, BlockSize)) {
		t.Error("unwritten block not zero")
	}
	want := bytes.Repeat([]byte{0xAB}, BlockSize)
	d.WriteBlock(0x1000, want)
	d.ReadBlock(0x1000, buf)
	if !bytes.Equal(buf, want) {
		t.Error("read != write")
	}
	if !d.HasBlock(0x1000) || d.HasBlock(0x1040) {
		t.Error("HasBlock disagrees with the blocks written")
	}
}

// TestForEachBlockAscends: written blocks are visited in ascending address
// order, across the store's 512-block leaves, and an unwritten block whose
// neighbours are written still reads as zeros and fails HasBlock.
func TestForEachBlockAscends(t *testing.T) {
	d := funcDRAM()
	want := []uint64{0x9000, 0x8040, 0x40, 0x8000, 0xC0000, 0x7FC0}
	for i, a := range want {
		d.WriteBlock(a, bytes.Repeat([]byte{byte(i + 1)}, BlockSize))
	}
	var got []uint64
	d.ForEachBlock(func(addr uint64) { got = append(got, addr) })
	asc := []uint64{0x40, 0x7FC0, 0x8000, 0x8040, 0x9000, 0xC0000}
	if !slices.Equal(got, asc) {
		t.Fatalf("ForEachBlock visited %#x, want %#x", got, asc)
	}
	buf := bytes.Repeat([]byte{0xFF}, BlockSize)
	d.ReadBlock(0x8080, buf)
	if !bytes.Equal(buf, make([]byte, BlockSize)) || d.HasBlock(0x8080) {
		t.Error("unwritten block beside written ones is not an unwritten zero block")
	}
}

func TestUnalignedPanics(t *testing.T) {
	d := funcDRAM()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	d.ReadBlock(0x1001, make([]byte, BlockSize))
}

func TestOutOfRangePanics(t *testing.T) {
	d := funcDRAM()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.WriteBlock(1<<20, make([]byte, BlockSize))
}

func TestFunctionalDisabledPanics(t *testing.T) {
	d := timingDRAM()
	defer func() {
		if recover() == nil {
			t.Fatal("functional read on timing-only DRAM did not panic")
		}
	}()
	d.ReadBlock(0, make([]byte, BlockSize))
}

func TestAttackerFlipAndOverwrite(t *testing.T) {
	d := funcDRAM()
	orig := bytes.Repeat([]byte{0x55}, BlockSize)
	d.WriteBlock(0, orig)
	a := NewAttacker(d)
	a.FlipBit(0, 9)
	got := a.Snoop(0)
	if got[1] != 0x55^0x02 {
		t.Errorf("bit flip wrong: %#x", got[1])
	}
	a.Overwrite(0, make([]byte, BlockSize))
	if got := a.Snoop(0); got != [BlockSize]byte{} {
		t.Error("overwrite failed")
	}
}

func TestAttackerReplay(t *testing.T) {
	d := funcDRAM()
	v1 := bytes.Repeat([]byte{1}, BlockSize)
	v2 := bytes.Repeat([]byte{2}, BlockSize)
	d.WriteBlock(64, v1)
	a := NewAttacker(d)
	if a.Replay(64) {
		t.Error("replay without snapshot succeeded")
	}
	a.Record(64)
	d.WriteBlock(64, v2) // victim updates the block
	if !a.Replay(64) {
		t.Fatal("replay failed")
	}
	got := a.Snoop(64)
	if !bytes.Equal(got[:], v1) {
		t.Error("replay did not restore old value")
	}
}

func TestAttackerSpliceAndCorrupt(t *testing.T) {
	d := funcDRAM()
	v := bytes.Repeat([]byte{7}, BlockSize)
	d.WriteBlock(0, v)
	a := NewAttacker(d)
	a.Splice(0, 128)
	if got := a.Snoop(128); !bytes.Equal(got[:], v) {
		t.Error("splice did not copy block")
	}
	a.Corrupt(0, rand.New(rand.NewSource(1)))
	if got := a.Snoop(0); bytes.Equal(got[:], v) {
		t.Error("corrupt left block unchanged")
	}
}

func TestAttackerRequiresFunctional(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("attacker on timing-only DRAM did not panic")
		}
	}()
	NewAttacker(timingDRAM())
}
