// Package sparse provides Table, the store of per-block state that both
// the counter store and the functional DRAM keep: a value per block index
// over an address space of hundreds of megabytes, of which a run writes a
// small and scattered part.
package sparse

// leafLen is the number of entries in one leaf: 512 pointers, 4 KB.
const leafLen = 512

// Table finds a value by its index through a slice of leaves of pointers.
// Each leaf is allocated with the first write to one of its entries and
// each value with its own first write, so memory follows the entries
// written, not the highest index (the top Merkle levels and the
// derivative counters sit at the end of the address map). The zero Table
// is empty and ready to use.
type Table[T any] struct{ leaves []*[leafLen]*T }

// At returns entry i, or nil while it is unwritten.
func (t *Table[T]) At(i uint64) *T {
	if l := i / leafLen; l < uint64(len(t.leaves)) && t.leaves[l] != nil {
		return t.leaves[l][i%leafLen]
	}
	return nil
}

// Slot returns entry i, allocating it, zeroed, if need be. Slot is too
// large to inline, so a hot path reaches a written entry through At and
// calls Slot only when At returns nil.
func (t *Table[T]) Slot(i uint64) *T {
	l := i / leafLen
	if l >= uint64(len(t.leaves)) {
		t.leaves = append(t.leaves, make([]*[leafLen]*T, l+1-uint64(len(t.leaves)))...)
	}
	leaf := t.leaves[l]
	if leaf == nil {
		leaf = new([leafLen]*T)
		t.leaves[l] = leaf
	}
	if leaf[i%leafLen] == nil {
		leaf[i%leafLen] = new(T)
	}
	return leaf[i%leafLen]
}

// Each calls fn on every written entry, in ascending index order.
func (t *Table[T]) Each(fn func(i uint64, v *T)) {
	for l, leaf := range t.leaves {
		if leaf == nil {
			continue
		}
		for j, v := range leaf {
			if v != nil {
				fn(uint64(l)*leafLen+uint64(j), v)
			}
		}
	}
}
