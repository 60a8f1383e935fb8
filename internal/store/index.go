package store

import (
	"hash/maphash"

	"blmr/internal/core"
)

// minIndexEntries is the index's first size, a power of two: filling
// 10 000 keys costs the index 11 allocations (DESIGN.md §4).
const minIndexEntries = 16

// indexEntry is one entry of a table's index: a key's first and last 8
// bytes (little-endian, zero-padded when the key is shorter than 8; the two
// overlap when it is 8 to 16 bytes), its length, and its slot. A key of 16
// bytes or fewer is all in head, tail and n, so it is matched without
// reading the slot or the slab. It holds no pointer, so the collector never
// scans the index.
type indexEntry struct {
	head, tail uint64
	n          uint32 // the key's length
	pos        int32  // 1 + the key's position in slots; 0 marks a free entry
}

// entryFor returns the entry of key at position pos in slots.
func entryFor(key string, pos int) indexEntry {
	head, tail := keyWords(key)
	return indexEntry{head: head, tail: tail, n: uint32(len(key)), pos: int32(pos) + 1}
}

// keyWords returns the head and tail an entry keeps for key.
func keyWords(key string) (head, tail uint64) {
	if n := len(key); n >= 8 {
		return core.Load64(key, 0), core.Load64(key, n-8)
	}
	for i := len(key) - 1; i >= 0; i-- {
		head = head<<8 | uint64(key[i])
	}
	return head, 0
}

// find returns key's position in slots, or -1 and the free entry where an
// insert of key belongs. The index is open-addressed with linear probing
// from the key's hash.
func (t *table) find(key string) (pos int32, free int) {
	if t.index == nil {
		return -1, -1
	}
	head, tail := keyWords(key)
	mask := len(t.index) - 1
	for i := int(maphash.String(t.seed, key)) & mask; ; i = (i + 1) & mask {
		e := &t.index[i]
		if e.pos == 0 {
			return -1, i
		}
		if e.head == head && e.tail == tail && e.n == uint32(len(key)) &&
			(len(key) <= 16 || t.slots[e.pos-1].Key[8:len(key)-8] == key[8:len(key)-8]) {
			return e.pos - 1, 0
		}
	}
}

// insert indexes a key find has just missed at free as the next slot,
// growing the index first when one more key would load it past 3/4.
func (t *table) insert(key string, free int) {
	if t.overloaded(len(t.index)) {
		t.grow()
		free = t.freeEntry(key)
	}
	t.index[free] = entryFor(key, len(t.slots))
}

// freeEntry returns the free entry where a key known to be absent belongs.
func (t *table) freeEntry(key string) int {
	mask := len(t.index) - 1
	i := int(maphash.String(t.seed, key)) & mask
	for t.index[i].pos != 0 {
		i = (i + 1) & mask
	}
	return i
}

// overloaded reports whether one more key would load an index of n entries
// past 3/4 (DESIGN.md §4 has the measurement behind 3/4).
func (t *table) overloaded(n int) bool { return 4*(len(t.slots)+1) > 3*n }

// grow doubles the index, or makes its first with a fresh seed, until one
// more key fits, and re-indexes every slot in slot order.
func (t *table) grow() {
	if t.index == nil {
		t.seed = maphash.MakeSeed()
	}
	n := max(2*len(t.index), minIndexEntries)
	for t.overloaded(n) {
		n *= 2
	}
	t.index = make([]indexEntry, n)
	for pos, r := range t.slots {
		t.index[t.freeEntry(r.Key)] = entryFor(r.Key, pos)
	}
}
