package sortx

// The prefix-indexed sort and the prefix-caching merger against the
// definition they replace: slices.SortStableFunc by strings.Compare.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blmr/internal/core"
)

// stableSorted is the reference: a stable sort by full key.
func stableSorted(in []core.Record) []core.Record {
	out := slices.Clone(in)
	slices.SortStableFunc(out, func(a, b core.Record) int { return strings.Compare(a.Key, b.Key) })
	return out
}

func requireSame(t *testing.T, what string, got, want []core.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %q/%q, want %q/%q", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// checkSortAndMerge holds one input against the reference four ways: the
// package-level ByKey, a Sorter other inputs have been through (stale
// scratch must not leak), that Sorter's Sorted run, which must leave the
// input where it was, and a merge of the input's `runs` contiguous chunks,
// each sorted on its own — chunk order is run order, so the merger's
// run-index tie-break must reproduce the stable order exactly.
func checkSortAndMerge(t *testing.T, s *Sorter, in []core.Record, runs int) {
	t.Helper()
	want := stableSorted(in)

	got := slices.Clone(in)
	if cost := ByKey(got); cost != CompareCost(len(in)) {
		t.Fatalf("ByKey cost = %d, want CompareCost(%d) = %d", cost, len(in), CompareCost(len(in)))
	}
	requireSame(t, "ByKey", got, want)

	got = slices.Clone(in)
	s.ByKey(got)
	requireSame(t, "reused Sorter", got, want)

	got = slices.Clone(in)
	run := s.Sorted(got)
	var sorted []core.Record
	for r, ok := run.Next(); ok; r, ok = run.Next() {
		sorted = append(sorted, r)
	}
	requireSame(t, "Sorted", sorted, want)
	requireSame(t, "input to Sorted", got, in)

	srcs := make([]Run, 0, runs)
	for _, chunk := range chunks(slices.Clone(in), runs) {
		s.ByKey(chunk)
		srcs = append(srcs, NewSliceRun(chunk))
	}
	requireSame(t, fmt.Sprintf("merge of %d runs", runs), NewMerger(srcs).Drain(), want)
}

// chunks cuts recs into n contiguous pieces (the last ones may be empty).
func chunks(recs []core.Record, n int) [][]core.Record {
	out := make([][]core.Record, n)
	per := (len(recs) + n - 1) / n
	for i := range out {
		lo, hi := min(i*per, len(recs)), min((i+1)*per, len(recs))
		out[i] = recs[lo:hi]
	}
	return out
}

// keyShapes are the key populations the 8-byte prefix or the radix sort's
// window can get wrong; key draws the key of the i-th record. Every
// generator draws from a small set, so equal keys — where only the index
// order keeps emission order — are common at any n.
var keyShapes = []struct {
	name string
	key  func(rng *rand.Rand, i int) string
}{
	{"uniform 8-byte", func(rng *rand.Rand, _ int) string { return core.EncodeUint64(rng.Uint64() % 4096) }},
	{"empty and short", func(rng *rand.Rand, _ int) string { return "abcdefg"[:rng.Intn(8)] }},
	// Zero-padding makes all of these one prefix: only the full compare
	// orders "a" < "a\x00" < "a\x00\x00".
	{"padding ambiguity", func(rng *rand.Rand, _ int) string { return "a" + strings.Repeat("\x00", rng.Intn(9)) }},
	{"empty vs zeros", func(rng *rand.Rand, _ int) string { return strings.Repeat("\x00", rng.Intn(11)) }},
	{"equal prefix, differ later", func(rng *rand.Rand, _ int) string {
		return "customer" + string(rune('a'+rng.Intn(3))) + strings.Repeat("x", rng.Intn(3))
	}},
	{"prefix is whole key vs longer", func(rng *rand.Rand, _ int) string { return "12345678abc"[:8+rng.Intn(4)] }},
	{"all equal", func(rng *rand.Rand, _ int) string { return "same-key-everywhere" }},
	{"high bytes", func(rng *rand.Rand, _ int) string {
		b := make([]byte, rng.Intn(10))
		for i := range b {
			b[i] = byte(0xfd + rng.Intn(3))
		}
		return string(b)
	}},
	{"words", func(rng *rand.Rand, _ int) string {
		b := make([]byte, 1+rng.Intn(11))
		for i := range b {
			b[i] = byte('a' + rng.Intn(2))
		}
		return string(b)
	}},
	// The workloads' vocabulary: every key 9 bytes, the window past "word"
	// decides every pair. Log-uniform ranks are Zipf with s = 1.
	{"word%05d zipf", func(rng *rand.Rand, _ int) string {
		return fmt.Sprintf("word%05d", int(math.Pow(20000, rng.Float64()))-1)
	}},
	// The batch's common prefix is longer than a window; keys differ past it.
	{"long shared prefix", func(rng *rand.Rand, _ int) string {
		return "customer-000" + strconv.Itoa(rng.Intn(300))
	}},
	// One outlier of the same length collapses the common prefix to 0, so
	// every other key ties on its first window ("customer") and goes through
	// the comparator.
	{"outlier collapses prefix", func(rng *rand.Rand, i int) string {
		if i == 5 {
			return "!ustomer-000000"
		}
		return fmt.Sprintf("customer-000%03d", rng.Intn(300))
	}},
	// Past the common prefix the window is all padding or NULs: only the
	// lengths order these, some of which end past the window.
	{"trailing NULs", func(rng *rand.Rand, _ int) string {
		return "common-prefix/" + "x"[:rng.Intn(2)] + strings.Repeat("\x00", rng.Intn(12))
	}},
	// Past "mix:" some keys end inside the window, some extend past it.
	{"inside and past the window", func(rng *rand.Rand, _ int) string {
		b := make([]byte, rng.Intn(14))
		for i := range b {
			b[i] = byte('a' + rng.Intn(2))
		}
		return "mix:" + string(b)
	}},
}

func TestByKeyMatchesStableSort(t *testing.T) {
	sizes := []int{0, 1, 2, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 1000,
		radixSortMin - 1, radixSortMin, radixSortMin + 1, 4 * radixSortMin}
	var s Sorter
	for _, shape := range keyShapes {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			in := make([]core.Record, n)
			for i := range in {
				// The value is the emission index: equal keys must keep it
				// ascending.
				in[i] = core.Record{Key: shape.key(rng, i), Value: fmt.Sprint(i)}
			}
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				checkSortAndMerge(t, &s, in, 1+n%5)
			})
		}
	}
}

// TestByKeyLarge is the 100 K case: every shape in one batch, so the common
// prefix is empty and runs of equal windows are deep enough for pdqsort's
// partitioning, pattern detection and heapsort fallback to see prefix ties.
func TestByKeyLarge(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(24))
	in := make([]core.Record, n)
	for i := range in {
		shape := keyShapes[rng.Intn(len(keyShapes))]
		in[i] = core.Record{Key: shape.key(rng, i), Value: fmt.Sprint(i)}
	}
	var s Sorter
	checkSortAndMerge(t, &s, in, 7)
}

// TestMergerRunIndexTieBreak: the same keys in every run, including keys
// that tie on the cached prefix; each key's values must come out in run
// order, and keys in full-key order.
func TestMergerRunIndexTieBreak(t *testing.T) {
	keys := []string{"", "\x00", "a", "a\x00", "a\x00\x00", "customer", "customer-1", "customer-2", "customerz"}
	if !slices.IsSorted(keys) {
		t.Fatal("test keys must be listed in order")
	}
	const runs = 5
	srcs := make([]Run, runs)
	for r := range srcs {
		var recs []core.Record
		for _, k := range keys {
			recs = append(recs, core.Record{Key: k, Value: fmt.Sprint(r)}, core.Record{Key: k, Value: fmt.Sprint(r) + "'"})
		}
		srcs[r] = NewSliceRun(recs)
	}
	m := NewMerger(srcs)
	for _, k := range keys {
		key, values, ok := m.NextGroup()
		if !ok || key != k {
			t.Fatalf("group %q: got key %q, ok %v", k, key, ok)
		}
		if got, want := strings.Join(values, " "), "0 0' 1 1' 2 2' 3 3' 4 4'"; got != want {
			t.Fatalf("group %q: values %q, want %q", k, got, want)
		}
	}
	if _, _, ok := m.NextGroup(); ok {
		t.Fatal("groups past the last key")
	}
}

// fuzzRecords decodes fuzz bytes into records: a length byte (mod 12), then
// that many key bytes. narrow folds key bytes onto {0, 1}, which makes
// prefix ties, padding ambiguity and equal keys the common case.
func fuzzRecords(data []byte, narrow bool) []core.Record {
	var recs []core.Record
	for len(data) > 0 {
		n := min(int(data[0])%12, len(data)-1)
		key := []byte(data[1 : 1+n])
		data = data[1+n:]
		if narrow {
			key = slices.Clone(key)
			for i := range key {
				key[i] &= 1
			}
		}
		recs = append(recs, core.Record{Key: string(key), Value: fmt.Sprint(len(recs))})
	}
	return recs
}

func FuzzByKey(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0}, false)                                 // empty keys only
	f.Add([]byte{1, 'a', 2, 'a', 0, 3, 'a', 0, 0, 1, 'a'}, false) // "a", "a\0", "a\0\0", "a"
	f.Add([]byte("\x0bcustomer-10\x0acustomer-2\x08customer\x0bcustomer-10"), false)
	f.Add([]byte(strings.Repeat("\x09abcdefghi\x03abc\x00", 8)), true)
	// Past an outlier's collapsed prefix the rest tie on their first window.
	f.Add([]byte("\x0bprefix-01ab\x0aprefix-01b\x01!\x0bprefix-01aa\x0aprefix-01a"), false)
	f.Add([]byte("\x05ab\x00\x00\x00\x0bab\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02ab\x03abc\x0aab\x00\x00\x00\x00\x00\x00\x00\x00"), false)
	f.Fuzz(func(t *testing.T, data []byte, narrow bool) {
		var s Sorter
		recs := fuzzRecords(data, narrow)
		checkSortAndMerge(t, &s, recs, 1+len(data)%4)
		// A few dozen records stay below radixSortMin; tiled, the same keys
		// take the radix path.
		checkSortAndMerge(t, &s, tile(recs, 2*radixSortMin), 1+len(data)%4)
	})
}

// tile repeats recs' keys until there are at least n records, each valued
// with its own emission index.
func tile(recs []core.Record, n int) []core.Record {
	if len(recs) == 0 {
		return nil
	}
	out := make([]core.Record, 0, n+len(recs))
	for len(out) < n {
		for _, r := range recs {
			out = append(out, core.Record{Key: r.Key, Value: strconv.Itoa(len(out))})
		}
	}
	return out
}

// TestSorterSteadyStateAllocatesNothing: after one call has sized the
// scratch, sorting slices no larger allocates nothing — what lets a map
// task sort every wave and partition through one Sorter.
func TestSorterSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]core.Record, 4096)
	for i := range base {
		base[i] = core.Record{Key: core.EncodeUint64(rng.Uint64() % 512), Value: "v"}
	}
	work := make([]core.Record, len(base))
	var s Sorter
	s.ByKey(slices.Clone(base))
	for _, n := range []int{len(base), len(base) / 3, insertionSortMax} {
		if allocs := testing.AllocsPerRun(10, func() {
			copy(work, base)
			s.ByKey(work[:n])
		}); allocs != 0 {
			t.Errorf("warmed-up Sorter.ByKey(%d records): %.0f allocs/call, want 0", n, allocs)
		}
	}
	sum := func(a, _ string) string { return a }
	if allocs := testing.AllocsPerRun(10, func() {
		copy(work, base)
		s.Combine(work, sum)
	}); allocs != 0 {
		t.Errorf("warmed-up Sorter.Combine: %.0f allocs/call, want 0", allocs)
	}

	// Word keys past radixSortMin take the radix sort and its second buffer.
	words := wordKeys(4 * radixSortMin)
	work = make([]core.Record, len(words))
	var w Sorter
	w.ByKey(slices.Clone(words))
	for name, f := range map[string]func(){
		"ByKey":   func() { w.ByKey(work) },
		"Sorted":  func() { w.Sorted(work) },
		"Combine": func() { w.Combine(work, sum) },
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			copy(work, words)
			f()
		}); allocs != 0 {
			t.Errorf("warmed-up Sorter.%s(%d word keys): %.0f allocs/call, want 0", name, len(words), allocs)
		}
	}
}

// TestMergerNextGroupAllocatesNothing: once the values buffer has grown to
// the largest group, a group costs no allocation.
func TestMergerNextGroupAllocatesNothing(t *testing.T) {
	const groups, runs = 512, 6
	srcs := make([]*SliceRun, runs)
	asRuns := make([]Run, runs)
	for r := range srcs {
		recs := make([]core.Record, groups)
		for g := range recs {
			recs[g] = core.Record{Key: core.EncodeUint64(uint64(g)), Value: "v"}
		}
		srcs[r] = NewSliceRun(recs)
		asRuns[r] = srcs[r]
	}
	m := NewMerger(asRuns)
	drain := func() {
		for _, r := range srcs {
			r.Rewind()
		}
		m.Reset(asRuns)
		n := 0
		for _, values, ok := m.NextGroup(); ok; _, values, ok = m.NextGroup() {
			if len(values) != runs {
				t.Fatalf("group of %d values, want %d", len(values), runs)
			}
			n++
		}
		if n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
	}
	drain()
	if allocs := testing.AllocsPerRun(10, drain); allocs != 0 {
		t.Errorf("steady-state merge of %d groups: %.0f allocs, want 0", groups, allocs)
	}
}
