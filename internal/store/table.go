package store

import (
	"hash/maphash"
	"slices"
	"strings"
	"unsafe"

	"blmr/internal/core"
	"blmr/internal/sortx"
)

const (
	// slabBytes is the size of one slab of key and value copies.
	slabBytes = 64 << 10
	// maxSlabString is the largest string copied into a slab; a bigger one
	// gets its own allocation so one giant key cannot waste a slab.
	maxSlabString = 4 << 10
)

// table holds the in-memory partial results of a MemStore or SpillStore: a
// hash index from key to slot (index.go), the slots in insertion order, and
// the slabs their strings are copied into. It keeps no order. Nothing reads
// partial results in key order except a drain — MemStore.Emit,
// SpillStore.spill, the live run of SpillStore.Emit — and every drain but a
// failed spill's is followed by clear or clearReuse, so the order is made
// once per drain, by sorted, instead of being kept up on every insert. A
// drain moves nothing, so the failed spill's table goes on as it was.
//
// A slot mergeSum has folded into holds its value as a number in sums until
// something reads it as a string: merge or a drain. sums[i] is
// the value SumMerger would have left, widths[i] the length of its decimal
// form — the bytes the slot is charged for; a zero width means the slot's
// value is its string. Both arrays reach as far as the last slot mergeSum
// folded into.
//
// Not safe for concurrent use.
type table struct {
	index  []indexEntry // key → position in slots; nil or a power of two long
	seed   maphash.Seed // index's hash seed, made with its first array
	slots  []core.Record
	sums   []int64
	widths []uint8 // at most 20, the length of MinInt64's form
	bytes  int64
	sorter sortx.Sorter // sorted's scratch, kept across clearReuse cycles

	// slab is the partially filled current slab; usedSlabs hold filled slabs
	// whose contents live slots may reference; spareSlabs hold slabs
	// clearReuse recycled, which nothing references any more.
	slab       []byte
	usedSlabs  [][]byte
	spareSlabs [][]byte
}

// value returns slot i's value, formatting a running sum into the slot
// first.
func (t *table) value(i int32) string {
	if int(i) < len(t.widths) && t.widths[i] > 0 {
		t.slots[i].Value = formatSum(t.sums[i])
		t.widths[i] = 0
	}
	return t.slots[i].Value
}

// merge stores val at an absent key and m(old, val) at a present one: one
// probe, then an in-place swap or an insert.
func (t *table) merge(key, val string, m Merger) {
	i, free := t.find(key)
	if i >= 0 {
		t.set(i, m(t.value(i), val))
		return
	}
	t.add(key, val, free)
}

// mergeSum is merge(key, val, SumMerger) without the strings. An absent key
// stores val as passed, as merge does; the first fold into a present key
// parses its string into a running sum, and every fold after that is an
// add. The slot is charged the length of the sum's decimal form, which is
// what SumMerger's string would have been charged, so the byte account
// after every call is merge's.
func (t *table) mergeSum(key, val string) {
	i, free := t.find(key)
	if i < 0 {
		t.add(key, val, free)
		return
	}
	if int(i) >= len(t.widths) {
		// Cover every slot. The widths this adds are zero: sorted and
		// clearReuse zero the widths before they cut them back.
		t.sums = slices.Grow(t.sums, len(t.slots)-len(t.sums))[:len(t.slots)]
		t.widths = slices.Grow(t.widths, len(t.slots)-len(t.widths))[:len(t.slots)]
	}
	n, width := t.sums[i], int(t.widths[i])
	if width == 0 {
		v := &t.slots[i].Value
		width, n = len(*v), parseSum(*v)
		*v = ""
	}
	d, ok := parseCount(val) // parseSum(val), with the digit loop inlined
	if !ok {
		d = parseSum(val)
	}
	n += d
	w := decimalWidth(n)
	t.sums[i], t.widths[i] = n, uint8(w)
	t.bytes += int64(w - width)
}

func (t *table) set(i int32, val string) {
	t.bytes += int64(len(val)) - int64(len(t.value(i)))
	t.slots[i].Value = val
}

// add inserts a key find has just missed at free. The key is copied, so a
// long-lived store never pins the (possibly much larger) string it was cut
// from — mapper output keys are substrings of whole input lines. The value
// is copied too: the first value seen for a key is kept as passed, and on
// the pooled fetch path that is a view into a shared decode-arena chunk
// (see codec.Arena), which a key seen once would pin for good. A merged
// value is the Merger's own string.
func (t *table) add(key, val string, free int) {
	t.bytes += ApproxRecordBytes(key, val)
	t.insert(key, free)
	t.slots = append(t.slots, core.Record{Key: t.copy(key), Value: t.copy(val)})
}

// copy copies s into the current slab and returns a view of the copy. A
// slab is append-only while anything may reference it — bytes are written
// once, before the unsafe.String view exists, and a slab is overwritten
// only after clearReuse, whose contract is that no string from the table
// is still referenced — so unsafe.String's no-mutation rule holds.
func (t *table) copy(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > maxSlabString {
		return strings.Clone(s)
	}
	if cap(t.slab)-len(t.slab) < len(s) {
		if t.slab != nil {
			t.usedSlabs = append(t.usedSlabs, t.slab)
		}
		if n := len(t.spareSlabs); n > 0 {
			t.slab = t.spareSlabs[n-1]
			t.spareSlabs = t.spareSlabs[:n-1]
		} else {
			t.slab = make([]byte, 0, slabBytes)
		}
	}
	off := len(t.slab)
	t.slab = append(t.slab, s...)
	return unsafe.String(&t.slab[off], len(s))
}

// sorted returns a run over the slots in key order, each running sum
// formatted into its slot first, so a drain reads what merge would have
// left. The slots do not move, so the index stays valid; what the run reads
// is the sorter's scratch, valid until the next drain.
func (t *table) sorted() sortx.SliceRun {
	for i := range t.widths {
		t.value(int32(i))
	}
	t.sums, t.widths = t.sums[:0], t.widths[:0]
	return t.sorter.Sorted(t.slots)
}

// drain is sorted for a store's last drain, Emit, after which the table is
// only cleared: it drops the index first, so the collector can take back
// the index's memory while the output is written.
func (t *table) drain() sortx.SliceRun {
	t.index = nil
	return t.sorted()
}

// emit writes every entry to out in key order and clears the table.
func (t *table) emit(out core.Output) {
	run := t.drain()
	for r, ok := run.Next(); ok; r, ok = run.Next() {
		out.Write(r.Key, r.Value)
	}
	t.clear()
}

// clear drops every entry and hands all memory to the collector. Strings
// obtained from the table may still be referenced: slabs are dropped,
// never overwritten.
func (t *table) clear() { *t = table{} }

// clearReuse drops every entry but keeps the slabs, the slot and sum
// arrays, the index's array and the sort scratch for the next fill — the
// clear for a spill store's fill/seal/clear cycle, which refills to the
// same footprint over and over.
//
// Contract: no string obtained from the table (a drained key or value, a
// stored value) may be referenced after the call — recycled slabs are
// overwritten by later inserts. The spill store qualifies: everything is
// encoded into the sealed run before the clear.
func (t *table) clearReuse() {
	clear(t.index)
	clear(t.slots) // drop merged values, which live outside the slabs
	t.slots = t.slots[:0]
	clear(t.widths)
	t.sums, t.widths = t.sums[:0], t.widths[:0]
	t.bytes = 0
	if t.slab != nil {
		t.spareSlabs = append(t.spareSlabs, t.slab[:0])
		t.slab = nil
	}
	for _, s := range t.usedSlabs {
		t.spareSlabs = append(t.spareSlabs, s[:0])
	}
	t.usedSlabs = t.usedSlabs[:0]
}
