package sparse

import "testing"

// TestAtBeforeWrite: an entry reads nil until it is written, whether its
// leaf is unallocated, allocated by a neighbour, or past the last leaf.
func TestAtBeforeWrite(t *testing.T) {
	var tab Table[int]
	for _, i := range []uint64{0, 511, 512, 1 << 30} {
		if v := tab.At(i); v != nil {
			t.Fatalf("empty table: At(%d) = %v, want nil", i, v)
		}
	}
	*tab.Slot(3 * leafLen) = 7
	for _, i := range []uint64{0, 3*leafLen - 1, 3*leafLen + 1, 4 * leafLen, 1 << 30} {
		if v := tab.At(i); v != nil {
			t.Fatalf("At(%d) = %v before its write, want nil", i, v)
		}
	}
	if v := tab.At(3 * leafLen); v == nil || *v != 7 {
		t.Fatalf("At(%d) = %v, want 7", 3*leafLen, v)
	}
}

// TestSlotAllocatesOnce: the first Slot of an entry allocates it, zeroed;
// a second returns the same value without allocating.
func TestSlotAllocatesOnce(t *testing.T) {
	var tab Table[[64]byte]
	v := tab.Slot(1000)
	if *v != [64]byte{} {
		t.Fatal("new entry not zeroed")
	}
	v[5] = 9
	if n := testing.AllocsPerRun(100, func() {
		if tab.Slot(1000) != v {
			t.Fatal("Slot returned a different value")
		}
	}); n != 0 {
		t.Errorf("Slot of a written entry allocates %.1f objects, want 0", n)
	}
	if got := tab.At(1000); got != v || got[5] != 9 {
		t.Fatal("At does not return the written value")
	}
}

// TestEachAscends: Each visits written entries in ascending index order
// across leaf boundaries, skipping unallocated leaves and unwritten entries.
func TestEachAscends(t *testing.T) {
	var tab Table[uint64]
	want := []uint64{5 * leafLen, 2*leafLen - 1, 2 * leafLen, 7, 0, leafLen}
	for _, i := range want {
		*tab.Slot(i) = i * 3
	}
	var got []uint64
	tab.Each(func(i uint64, v *uint64) {
		if *v != i*3 {
			t.Errorf("entry %d holds %d, want %d", i, *v, i*3)
		}
		got = append(got, i)
	})
	asc := []uint64{0, 7, leafLen, 2*leafLen - 1, 2 * leafLen, 5 * leafLen}
	if len(got) != len(asc) {
		t.Fatalf("Each visited %v, want %v", got, asc)
	}
	for k := range asc {
		if got[k] != asc[k] {
			t.Fatalf("Each visited %v, want %v", got, asc)
		}
	}
}
