package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRecordSize(t *testing.T) {
	r := Record{Key: "ab", Value: "cde"}
	if got := r.Size(); got != 2+3+RecordOverheadBytes {
		t.Fatalf("Size = %d", got)
	}
	if s := RecordsSize([]Record{r, r}); s != 2*r.Size() {
		t.Fatalf("RecordsSize = %d", s)
	}
}

func TestEncodeUint64OrderProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		ea, eb := EncodeUint64(a), EncodeUint64(b)
		return (a < b) == (ea < eb) && DecodeUint64(ea) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeInt64OrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := EncodeInt64(a), EncodeInt64(b)
		return (a < b) == (ea < eb) && DecodeInt64(ea) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFloat64OrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := EncodeFloat64(a), EncodeFloat64(b)
		if DecodeFloat64(ea) != a && !(a == 0 && DecodeFloat64(ea) == 0) {
			return false
		}
		return (a < b) == (ea < eb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFloat64Specials(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, math.Copysign(0, -1), 0, 1e-300, 1, 1e300, math.Inf(1)}
	enc := make([]string, len(vals))
	for i, v := range vals {
		enc[i] = EncodeFloat64(v)
	}
	if !sort.StringsAreSorted(enc) {
		t.Fatalf("encoded specials not sorted: %q", enc)
	}
}

func TestJoinSplitValues(t *testing.T) {
	parts := []string{"a", "", "c d", "1.5"}
	s := JoinValues(parts...)
	got := SplitValues(s)
	if len(got) != len(parts) {
		t.Fatalf("got %v", got)
	}
	for i := range parts {
		if got[i] != parts[i] {
			t.Fatalf("part %d = %q, want %q", i, got[i], parts[i])
		}
	}
	if SplitValues("") != nil {
		t.Fatal("SplitValues(\"\") should be nil")
	}
}

func TestPartitionStableAndInRange(t *testing.T) {
	keys := []string{"", "a", "b", "hello", "world", "\x00\xff"}
	for _, k := range keys {
		p1 := Partition(k, 7)
		p2 := Partition(k, 7)
		if p1 != p2 {
			t.Fatalf("Partition not stable for %q", k)
		}
		if p1 < 0 || p1 >= 7 {
			t.Fatalf("Partition(%q,7) = %d out of range", k, p1)
		}
	}
	if Partition("anything", 1) != 0 {
		t.Fatal("single partition must map to 0")
	}
	if Partition("anything", 0) != 0 {
		t.Fatal("degenerate n<=1 must map to 0")
	}
}

func TestPartitionSpreadsKeys(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		counts[Partition(EncodeUint64(uint64(i*2654435761)), 8)]++
	}
	for p, c := range counts {
		if c < 256 {
			t.Fatalf("partition %d underloaded: %d of 4096", p, c)
		}
	}
}

func TestClassTable(t *testing.T) {
	cases := []struct {
		c    Class
		sort bool
		size string
	}{
		{ClassIdentity, false, "O(1)"},
		{ClassSorting, true, "O(records)"},
		{ClassAggregation, false, "O(keys)"},
		{ClassSelection, false, "O(k * keys)"},
		{ClassPostReduction, false, "O(records)"},
		{ClassCrossKey, false, "O(window_size)"},
		{ClassSingleReducer, false, "O(1)"},
	}
	for _, tc := range cases {
		if tc.c.SortRequired() != tc.sort {
			t.Errorf("%v SortRequired = %v", tc.c, tc.c.SortRequired())
		}
		if tc.c.PartialResultSize() != tc.size {
			t.Errorf("%v PartialResultSize = %q, want %q", tc.c, tc.c.PartialResultSize(), tc.size)
		}
		if tc.c.String() == "Unknown" {
			t.Errorf("class %d has no name", tc.c)
		}
	}
	if Class(99).String() != "Unknown" {
		t.Error("out-of-range class should be Unknown")
	}
}

func TestFuncAdapters(t *testing.T) {
	var emitted, reduced, written []string
	m := MapperFunc(func(k, v string, e Emitter) { e.Emit(k, v) })
	m.Map("k", "v", EmitterFunc(func(k, v string) { emitted = append(emitted, k+v) }))
	r := GroupReducerFunc(func(k string, vs []string, o Output) { reduced = append(reduced, k); o.Write(k, "out") })
	r.Reduce("x", []string{"1"}, OutputFunc(func(k, v string) { written = append(written, k+v) }))
	if len(emitted) != 1 || emitted[0] != "kv" {
		t.Fatalf("emitted %v", emitted)
	}
	if len(reduced) != 1 || len(written) != 1 || written[0] != "xout" {
		t.Fatalf("reduced %v written %v", reduced, written)
	}
}

// TestEmitterDoubles: a partition with no size hint grows by doubling from
// 64 records, so N records into one partition cost at most
// ceil(log2(N/64)) + 1 allocations.
func TestEmitterDoubles(t *testing.T) {
	const n = 10000
	e := NewPartitionedEmitter(1, 0)
	allocs := testing.AllocsPerRun(50, func() {
		e.Parts[0] = nil
		for range n {
			e.Emit("k", "v")
		}
	})
	if want := math.Ceil(math.Log2(n/64.0)) + 1; allocs > want {
		t.Fatalf("emitting %d records into one partition made %.0f allocations, want at most %.0f", n, allocs, want)
	}
	if len(e.Parts[0]) != n {
		t.Fatalf("partition holds %d records, want %d", len(e.Parts[0]), n)
	}
}
