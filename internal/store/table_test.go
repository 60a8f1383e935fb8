package store

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"blmr/internal/workload"
)

func concat(old, v string) string { return old + v }

// get returns the value at key, formatting a running sum into its slot
// first, as merge reads it. Nothing but a test reads a table by key.
func (t *table) get(key string) (string, bool) {
	if i, _ := t.find(key); i >= 0 {
		return t.value(i), true
	}
	return "", false
}

// put stores val at key, replacing any value: merge with a merger that
// keeps the new value.
func (t *table) put(key, val string) {
	t.merge(key, val, func(_, v string) string { return v })
}

// drained reads t in key order through the drain run, without clearing.
func drained(t *table) (keys, vals []string) {
	run := t.sorted()
	for r, ok := run.Next(); ok; r, ok = run.Next() {
		keys = append(keys, r.Key)
		vals = append(vals, r.Value)
	}
	return keys, vals
}

// peek returns what get would for slot i without formatting a running sum
// into the slot, so a check leaves the table as it found it.
func peek(tab *table, i int32) string {
	if int(i) < len(tab.widths) && tab.widths[i] > 0 {
		return formatSum(tab.sums[i])
	}
	return tab.slots[i].Value
}

// indexed counts the index's occupied entries.
func indexed(tab *table) int {
	n := 0
	for _, e := range tab.index {
		if e.pos != 0 {
			n++
		}
	}
	return n
}

// checkPeek asserts tab holds exactly ref, as checkTable does, but formats
// no running sum into its slot, so the table is left as it was found. It
// walks the slots in the drain's key order through the table's own sorter
// (the keys only: a running sum's slot holds no string) and reads each
// value through the index and peek.
func checkPeek(t *testing.T, tab *table, ref map[string]string) {
	t.Helper()
	want := make([]string, 0, len(ref))
	var bytes int64
	for k, v := range ref {
		want = append(want, k)
		bytes += ApproxRecordBytes(k, v)
	}
	sort.Strings(want)
	if len(tab.slots) != len(want) || indexed(tab) != len(want) || tab.bytes != bytes {
		t.Fatalf("Len,index,Bytes = %d,%d,%d want %d,%d", len(tab.slots), indexed(tab), tab.bytes, len(want), bytes)
	}
	run := tab.sorter.Sorted(tab.slots)
	for n, k := range want {
		r, _ := run.Next()
		if r.Key != k {
			t.Fatalf("drain[%d] = %q, want %q", n, r.Key, k)
		}
		i, _ := tab.find(k)
		if i < 0 {
			t.Fatalf("%q not in the index", k)
		}
		if got := peek(tab, i); tab.slots[i].Key != k || got != ref[k] {
			t.Fatalf("slot of %q holds %q=%q, want %q", k, tab.slots[i].Key, got, ref[k])
		}
	}
}

// checkTable asserts tab holds exactly ref: Len, Bytes = Σ ApproxRecordBytes,
// every key found by get, and the drain in key order.
func checkTable(t *testing.T, tab *table, ref map[string]string) {
	t.Helper()
	want := make([]string, 0, len(ref))
	var bytes int64
	for k, v := range ref {
		want = append(want, k)
		bytes += ApproxRecordBytes(k, v)
		if got, ok := tab.get(k); !ok || got != v {
			t.Fatalf("get(%q) = %q,%v want %q", k, got, ok, v)
		}
	}
	sort.Strings(want)
	if len(tab.slots) != len(want) || tab.bytes != bytes {
		t.Fatalf("Len,Bytes = %d,%d want %d,%d", len(tab.slots), tab.bytes, len(want), bytes)
	}
	keys, vals := drained(tab)
	if len(keys) != len(want) {
		t.Fatalf("drain visited %d of %d", len(keys), len(want))
	}
	for i, k := range keys {
		if k != want[i] || vals[i] != ref[k] {
			t.Fatalf("drain[%d] = %q=%q, want %q=%q", i, k, vals[i], want[i], ref[want[i]])
		}
	}
}

func TestTablePutGet(t *testing.T) {
	var tab table
	for i := 0; i < 100; i++ {
		tab.put(fmt.Sprintf("k%03d", i), fmt.Sprint(i))
	}
	for i := 0; i < 100; i++ {
		if v, ok := tab.get(fmt.Sprintf("k%03d", i)); !ok || v != fmt.Sprint(i) {
			t.Fatalf("get(k%03d) = %q,%v", i, v, ok)
		}
	}
	if _, ok := tab.get("missing"); ok {
		t.Fatal("found missing key")
	}
}

func TestTablePutReplaces(t *testing.T) {
	var tab table
	tab.put("a", "one")
	before := tab.bytes
	tab.put("a", "twotwo")
	if len(tab.slots) != 1 {
		t.Fatalf("Len = %d", len(tab.slots))
	}
	if v, _ := tab.get("a"); v != "twotwo" {
		t.Fatalf("get = %q", v)
	}
	if tab.bytes != before+3 {
		t.Fatalf("Bytes = %d, want %d", tab.bytes, before+3)
	}
}

func TestTableDrainOrder(t *testing.T) {
	var tab table
	in := []string{"delta", "alpha", "echo", "", "bravo", "charlie"}
	for _, k := range in {
		tab.put(k, "v")
	}
	got, _ := drained(&tab)
	want := append([]string(nil), in...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drain order = %q, want %q", got, want)
	}
}

func TestTableBytesAccounting(t *testing.T) {
	var tab table
	tab.put("key1", "value1")
	want := ApproxRecordBytes("key1", "value1")
	if tab.bytes != want || want != 4+6+entryOverheadBytes {
		t.Fatalf("Bytes = %d, want %d", tab.bytes, want)
	}
	tab.merge("key2", "v", concat)
	tab.merge("key2", "w", concat)
	want += ApproxRecordBytes("key2", "vw")
	if tab.bytes != want {
		t.Fatalf("Bytes = %d, want %d", tab.bytes, want)
	}
	tab.clear()
	if tab.bytes != 0 || len(tab.slots) != 0 {
		t.Fatal("clear did not reset")
	}
}

// TestTableMatchesMapProperty: after any sequence of puts, the drain is the
// reference map's contents in key order.
func TestTableMatchesMapProperty(t *testing.T) {
	f := func(keys []string) bool {
		var tab table
		ref := map[string]string{}
		for i, k := range keys {
			v := fmt.Sprint(i)
			tab.put(k, v)
			ref[k] = v
		}
		got, vals := drained(&tab)
		if len(got) != len(ref) || !sort.StringsAreSorted(got) {
			return false
		}
		for i, k := range got {
			if ref[k] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableLargeRandomMixedWorkload(t *testing.T) {
	var tab table
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := fmt.Sprintf("k%d", rng.Intn(3000))
		v := fmt.Sprint(op)
		tab.put(k, v)
		ref[k] = v
	}
	checkTable(t, &tab, ref)
}

// keySet returns n keys built from prefix and five digits, plus the empty
// key, so two calls with different one-byte prefixes give different keys of
// the same lengths.
func keySet(prefix string, n int) []string {
	keys := []string{""}
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("%s%05d", prefix, i))
	}
	return keys
}

// edgeKeys returns keys of lengths 0, 1, 7, 8, 9, 15, 16, 17 and 24 that
// share their first 8 and last 8 bytes, all fill: at each length the key of
// fill bytes alone; at 17 and 24 also that key with one middle byte set to
// '0' or '~', at each middle position in turn; below 8 bytes also the key
// with a NUL appended, which zero-padding into one word would make look the
// same. So the index tells these keys apart only by length, by a middle
// byte, or by a padding byte. Two calls with different fills give different
// keys of the same lengths.
func edgeKeys(fill byte) []string {
	var keys []string
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 24} {
		base := strings.Repeat(string(fill), n)
		keys = append(keys, base)
		if n < 8 {
			keys = append(keys, base+"\x00")
		}
		for m := 8; m < n-8; m++ {
			for _, c := range "0~" {
				b := []byte(base)
				b[m] = byte(c)
				keys = append(keys, string(b))
			}
		}
	}
	return keys
}

// sumValues are mergeSum's operands in TestTableProperty besides plain
// counts: values SumMerger reads the way strconv does (signs, spaces,
// garbage, a 19-digit overflow), and the ends of int64, so sums wrap.
var sumValues = []string{
	"007", " 1", "-3", "+4", "abc", "", "9999999999999999999", "4095", "4096",
	"9223372036854775807", "-9223372036854775808",
}

// TestTableProperty drives random merge/mergeSum/put/get/drain/clear/
// clearReuse against a map reference, whose mergeSum folds strings with
// SumMerger. Every clear switches to a different key set of the same
// lengths, so an index entry or slot surviving the clear, or a recycled
// slab still referenced, reads wrong. A drain that is not followed by a
// clear (a spill that failed) must leave the table usable. Contents, order,
// Len and Bytes are checked after every step, through peek so that a
// running sum stays one across steps; get and each drain check them through
// the table's own reads. The other operations share 100 of 130 draws and
// mergeSum has 30, so 3900 steps give the others 3000 steps' worth. The
// seeds run over keySet's 6-byte keys, then over edgeKeys, whose keys the
// index can tell apart only by their lengths or middle bytes.
func TestTableProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sets := [][]string{keySet("a", 48), keySet("b", 48)}
		if seed > 4 {
			sets = [][]string{edgeKeys('a'), edgeKeys('b')}
		}
		rng := rand.New(rand.NewSource(seed))
		var tab table
		ref := map[string]string{}
		set := 0
		for step := 0; step < 3900; step++ {
			// Probe across both sets: keys of the other set must miss.
			k := sets[rng.Intn(2)][rng.Intn(len(sets[0]))]
			if rng.Intn(4) > 0 {
				k = sets[set][rng.Intn(len(sets[set]))]
			}
			v := fmt.Sprint(rng.Intn(1000))
			switch op := rng.Intn(130); {
			case op < 45:
				tab.merge(k, v, concat)
				ref[k] += v
			case op < 65:
				tab.put(k, v)
				ref[k] = v
			case op < 96:
				got, ok := tab.get(k)
				if want, wantOK := ref[k]; ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: get(%q) = %q,%v want %q,%v", seed, step, k, got, ok, want, wantOK)
				}
			case op < 98:
				checkTable(t, &tab, ref) // drains
			case op < 99:
				tab.clear()
				ref = map[string]string{}
				set = 1 - set
			case op < 100:
				tab.clearReuse()
				ref = map[string]string{}
				set = 1 - set
			default:
				if rng.Intn(4) == 0 {
					v = sumValues[rng.Intn(len(sumValues))]
				}
				tab.mergeSum(k, v)
				if old, ok := ref[k]; ok {
					v = SumMerger(old, v)
				}
				ref[k] = v
			}
			checkPeek(t, &tab, ref)
		}
	}
}

// TestIndexTellsEdgeKeysApart: no key of edgeKeys matches another's index
// entry. The hash seed is random, so the property test meets such an entry
// on a probe only by chance; here every entry of the index but one holds
// the other key's, and the one free entry is the last the probe reaches.
func TestIndexTellsEdgeKeysApart(t *testing.T) {
	keys := edgeKeys('a')
	for _, a := range keys {
		for _, b := range keys {
			if a == b {
				continue
			}
			var tab table
			tab.put(a, "v")
			e := tab.index[slices.IndexFunc(tab.index, func(e indexEntry) bool { return e.pos != 0 })]
			mask := len(tab.index) - 1
			last := (int(maphash.String(tab.seed, b)) + mask) & mask
			for i := range tab.index {
				tab.index[i] = e
			}
			tab.index[last] = indexEntry{}
			if pos, free := tab.find(b); pos != -1 || free != last {
				t.Fatalf("find(%q) with %q's entry everywhere = %d,%d, want -1,%d", b, a, pos, free, last)
			}
		}
	}
}

// FuzzTableIndex runs fuzzed keys through put, merge, mergeSum, get, drain
// and clearReuse against a map reference, as TestTableProperty does with
// fixed key sets. The input is a list of operations, each an opcode byte, a
// length byte (taken mod 33, so keys straddle the index's 8- and 16-byte
// cut-overs) and that many key bytes.
func FuzzTableIndex(f *testing.F) {
	ops := func(keys ...string) []byte {
		var b []byte
		for i, k := range keys {
			b = append(b, byte(i), byte(len(k)))
			b = append(b, k...)
		}
		return b
	}
	f.Add(ops(edgeKeys('a')...))
	f.Add(ops("", "\x00", "a", "a\x00", "", "\x00", "a", "a\x00"))
	f.Add(ops(strings.Repeat("k", 17), "kkkkkkkk0kkkkkkkk", strings.Repeat("k", 17), "kkkkkkkk0kkkkkkkk",
		strings.Repeat("k", 32), strings.Repeat("k", 31), strings.Repeat("k", 32)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var tab table
		ref := map[string]string{}
		for len(in) >= 2 {
			op, n := in[0], int(in[1])%33
			in = in[2:]
			k := string(in[:min(n, len(in))])
			in = in[len(k):]
			v := fmt.Sprint(op)
			switch op % 7 {
			case 0:
				tab.put(k, v)
				ref[k] = v
			case 1:
				tab.merge(k, v, concat)
				ref[k] += v
			case 2, 3:
				tab.mergeSum(k, v)
				if old, ok := ref[k]; ok {
					v = SumMerger(old, v)
				}
				ref[k] = v
			case 4:
				got, ok := tab.get(k)
				if want, wantOK := ref[k]; ok != wantOK || got != want {
					t.Fatalf("get(%q) = %q,%v want %q,%v", k, got, ok, want, wantOK)
				}
			case 5:
				checkTable(t, &tab, ref) // drains
			case 6:
				tab.clearReuse()
				ref = map[string]string{}
			}
			checkPeek(t, &tab, ref)
		}
	})
}

// TestTableSlabKeysSurviveGrowth: slab-copied keys and first-seen values
// stay intact through interleaved inserts, merges and replacements — a slab
// is never overwritten while live.
func TestTableSlabKeysSurviveGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab table
	ref := map[string]string{}
	for i := 0; i < 20_000; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(8000))
		v := fmt.Sprintf("v%d", i)
		if rng.Intn(4) == 0 {
			tab.merge(k, v, concat)
			ref[k] += v
		} else {
			tab.put(k, v)
			ref[k] = v
		}
	}
	checkTable(t, &tab, ref)
}

// TestTableOversizedKeys: keys and values above the slab limit take their
// own allocation, interleaved with slab-copied ones.
func TestTableOversizedKeys(t *testing.T) {
	var tab table
	ref := map[string]string{}
	for i := 0; i < 50; i++ {
		big := strings.Repeat(fmt.Sprint(i%10), maxSlabString+i)
		small := fmt.Sprintf("small%02d", i)
		tab.merge(big, small, concat)
		tab.merge(small, big, concat)
		ref[big], ref[small] = small, big
	}
	checkTable(t, &tab, ref)
}

// TestTableClearReuseRecycles: after clearReuse, refilling reuses the
// retired slabs (no growth across cycles) and the new contents are correct
// — the old keys' bytes are legitimately overwritten.
func TestTableClearReuseRecycles(t *testing.T) {
	var tab table
	for cycle := 0; cycle < 5; cycle++ {
		ref := map[string]string{}
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("c%d-key-%06d", cycle, i)
			tab.put(k, "v")
			ref[k] = "v"
		}
		checkTable(t, &tab, ref)
		tab.clearReuse()
		if len(tab.slots) != 0 || tab.bytes != 0 || indexed(&tab) != 0 {
			t.Fatalf("cycle %d: clearReuse left %d keys / %d bytes", cycle, len(tab.slots), tab.bytes)
		}
	}
	// The spare list bounds the slab count to one fill's worth, not five.
	if got := len(tab.spareSlabs) + len(tab.usedSlabs); got > 10 {
		t.Fatalf("slab count grew across cycles: %d spare+used", got)
	}
}

// TestTableProbeAllocatesNothing pins the hit path: get and merge on a
// present key, get on an absent one, and mergeSum on a present key.
func TestTableProbeAllocatesNothing(t *testing.T) {
	var tab table
	keys := keySet("g", 12)
	for _, k := range keys {
		tab.put(k, "v")
	}
	keep := func(old, _ string) string { return old }
	sums := keySet("s", 12)[1:] // not the empty key, which get reads
	for _, k := range sums {
		tab.mergeSum(k, "100000")
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			tab.get(k)
			tab.merge(k, "w", keep)
		}
		tab.get("absent")
		for _, k := range sums {
			tab.mergeSum(k, "1")
		}
	}); n != 0 {
		t.Fatalf("get/merge/mergeSum allocated %.1f times per run, want 0", n)
	}
}

// TestTableAllocsPerInsert: slabs, and the index's and slot array's
// amortised growth, keep fresh-key inserts under one allocation per 200:
// 36 for 10 000 keys, 11 of them the index's doublings (DESIGN.md §4).
func TestTableAllocsPerInsert(t *testing.T) {
	const n = 10_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%06d", i)
	}
	allocs := testing.AllocsPerRun(5, func() {
		var tab table
		for _, k := range keys {
			tab.put(k, "v")
		}
	})
	if perInsert := allocs / n; perInsert > 0.005 {
		t.Fatalf("%.4f allocs per insert, want < 0.005 (total %.0f for %d inserts)", perInsert, allocs, n)
	}
	t.Logf("%.0f allocs for %d fresh-key inserts", allocs, n)
}

// TestTableCycleAllocatesNothing: once one cycle has sized the slabs, slot
// and sum arrays, index and sort scratch, a fill → drain → clearReuse cycle
// of the same size — the spill store's loop — allocates nothing.
func TestTableCycleAllocatesNothing(t *testing.T) {
	keys := keySet("cycle", 5000)
	var tab table
	cycle := func() {
		for _, k := range keys {
			tab.merge(k, "1", concat)
			tab.mergeSum(k, "1")
		}
		run := tab.sorted()
		for _, ok := run.Next(); ok; _, ok = run.Next() {
		}
		tab.clearReuse()
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a warmed fill/drain/clearReuse cycle allocated %.1f times, want 0", n)
	}
}

var sinkLen int

func keepOld(old, _ string) string { return old }

// BenchmarkUpdateHitZipf is the word-count reducer's store traffic: 20 K
// keys, Zipf s = 1 (workload.Text's distribution), so after the first few
// thousand operations nearly every merge finds its key. merge is the probe
// and swap with string values; mergeSum is word count's own fold.
func BenchmarkUpdateHitZipf(b *testing.B) {
	words := make([]string, 20_000)
	for i := range words {
		words[i] = fmt.Sprintf("word%05d", i)
	}
	z := workload.NewZipf(workload.NewRNG(7), len(words), 1.0)
	stream := make([]string, 1<<20)
	for i := range stream {
		stream[i] = words[z.Next()]
	}
	for _, c := range []struct {
		name string
		fold func(t *table, key string)
	}{
		{"merge", func(t *table, key string) { t.merge(key, "1", keepOld) }},
		{"mergeSum", func(t *table, key string) { t.mergeSum(key, "1") }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var tab table
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fold(&tab, stream[i&(len(stream)-1)])
			}
			sinkLen = len(tab.slots)
		})
	}
}

// BenchmarkUpdateMissUnique is the pipelined sort's: every key is new, so
// every merge pays the failed probe and then the insert. Every 1 M keys the
// table is drained in key order and recycled, as a spill would, so ns/op
// includes the order's cost and does not depend on b.N.
func BenchmarkUpdateMissUnique(b *testing.B) {
	rng := workload.NewRNG(7)
	keys := make([]string, 1_000_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%012d-%07d", rng.Uint64()%(1<<40), i)
	}
	var tab table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 && i > 0 {
			run := tab.sorted()
			for r, ok := run.Next(); ok; r, ok = run.Next() {
				sinkLen += len(r.Key)
			}
			tab.clearReuse()
		}
		tab.merge(keys[j], "1", keepOld)
	}
	sinkLen = len(tab.slots)
}
