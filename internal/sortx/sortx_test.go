package sortx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blmr/internal/core"
)

func recs(pairs ...string) []core.Record {
	if len(pairs)%2 != 0 {
		panic("pairs")
	}
	out := make([]core.Record, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, core.Record{Key: pairs[i], Value: pairs[i+1]})
	}
	return out
}

func TestByKeyStable(t *testing.T) {
	in := recs("b", "1", "a", "1", "b", "2", "a", "2", "b", "3")
	ByKey(in)
	want := recs("a", "1", "a", "2", "b", "1", "b", "2", "b", "3")
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("sorted = %v", in)
		}
	}
}

func TestCompareCost(t *testing.T) {
	if CompareCost(0) != 0 || CompareCost(1) != 0 {
		t.Fatal("trivial sorts must cost 0")
	}
	if CompareCost(8) != 8*3 {
		t.Fatalf("CompareCost(8) = %d, want 24", CompareCost(8))
	}
	if CompareCost(1024) != 1024*10 {
		t.Fatalf("CompareCost(1024) = %d", CompareCost(1024))
	}
}

func TestGroup(t *testing.T) {
	in := recs("a", "1", "a", "2", "b", "x", "c", "y", "c", "z")
	var keys []string
	var counts []int
	Group(in, func(k string, vs []string) {
		keys = append(keys, k)
		counts = append(counts, len(vs))
	})
	if fmt.Sprint(keys) != "[a b c]" || fmt.Sprint(counts) != "[2 1 2]" {
		t.Fatalf("keys=%v counts=%v", keys, counts)
	}
}

func TestGroupPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Group(recs("b", "1", "a", "1"), func(string, []string) {})
}

func TestGroupEmpty(t *testing.T) {
	Group(nil, func(string, []string) { t.Fatal("fn called on empty input") })
}

func TestMergerBasic(t *testing.T) {
	m := NewMerger([]Run{
		NewSliceRun(recs("a", "1", "c", "1", "e", "1")),
		NewSliceRun(recs("b", "2", "c", "2", "d", "2")),
		NewSliceRun(recs("a", "3", "f", "3")),
	})
	out := m.Drain()
	wantKeys := []string{"a", "a", "b", "c", "c", "d", "e", "f"}
	if len(out) != len(wantKeys) {
		t.Fatalf("out = %v", out)
	}
	for i, k := range wantKeys {
		if out[i].Key != k {
			t.Fatalf("out[%d] = %v, want key %q", i, out[i], k)
		}
	}
	// Stability: for key "a", run 0's record precedes run 2's.
	if out[0].Value != "1" || out[1].Value != "3" {
		t.Fatalf("tie-break not stable: %v", out[:2])
	}
}

func TestMergerNextGroup(t *testing.T) {
	m := NewMerger([]Run{
		NewSliceRun(recs("a", "1", "b", "1")),
		NewSliceRun(recs("a", "2", "b", "2", "b", "3")),
	})
	k, vs, ok := m.NextGroup()
	if !ok || k != "a" || len(vs) != 2 {
		t.Fatalf("group1 = %q %v", k, vs)
	}
	k, vs, ok = m.NextGroup()
	if !ok || k != "b" || len(vs) != 3 {
		t.Fatalf("group2 = %q %v", k, vs)
	}
	if _, _, ok = m.NextGroup(); ok {
		t.Fatal("expected exhausted merger")
	}
}

func TestMergerEmptyRuns(t *testing.T) {
	m := NewMerger([]Run{NewSliceRun(nil), NewSliceRun(nil)})
	if _, ok := m.Next(); ok {
		t.Fatal("merger over empty runs should be empty")
	}
	m2 := NewMerger(nil)
	if _, ok := m2.Next(); ok {
		t.Fatal("merger with no runs should be empty")
	}
}

func TestMergeEqualsSortProperty(t *testing.T) {
	// Property: splitting a random record set into sorted runs and merging
	// yields the same key sequence as sorting everything at once.
	f := func(keys []uint16, nRuns uint8) bool {
		all := make([]core.Record, len(keys))
		for i, k := range keys {
			all[i] = core.Record{Key: core.EncodeUint64(uint64(k)), Value: fmt.Sprint(i)}
		}
		n := int(nRuns%7) + 1
		runs := make([][]core.Record, n)
		for i, r := range all {
			runs[i%n] = append(runs[i%n], r)
		}
		var asRuns []Run
		for _, rr := range runs {
			ByKey(rr)
			asRuns = append(asRuns, NewSliceRun(rr))
		}
		merged := NewMerger(asRuns).Drain()
		ref := make([]core.Record, len(all))
		copy(ref, all)
		ByKey(ref)
		if len(merged) != len(ref) {
			return false
		}
		for i := range merged {
			if merged[i].Key != ref[i].Key {
				return false
			}
		}
		return sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Key < merged[j].Key })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombine(t *testing.T) {
	in := recs("b", "1", "a", "2", "b", "3", "a", "4", "c", "5")
	out := Combine(in, func(a, b string) string { return a + "+" + b })
	want := recs("a", "2+4", "b", "1+3", "c", "5")
	if len(out) != len(want) {
		t.Fatalf("combined = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("combined[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Degenerate sizes pass through untouched.
	if got := Combine(nil, SumConcat); got != nil {
		t.Fatalf("Combine(nil) = %v", got)
	}
	one := recs("x", "1")
	if got := Combine(one, SumConcat); len(got) != 1 || got[0] != one[0] {
		t.Fatalf("Combine(single) = %v", got)
	}
}

func SumConcat(a, b string) string { return a + b }

func TestMergerReset(t *testing.T) {
	r1 := NewSliceRun(recs("a", "1", "c", "1"))
	r2 := NewSliceRun(recs("b", "2"))
	runs := []Run{r1, r2}
	m := NewMerger(runs)
	first := m.Drain()
	if len(first) != 3 {
		t.Fatalf("first drain = %v", first)
	}
	r1.Rewind()
	r2.Rewind()
	m.Reset(runs)
	second := m.Drain()
	if len(second) != 3 {
		t.Fatalf("second drain = %v", second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("drains differ at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func BenchmarkByKey(b *testing.B) { benchByKey(b, uniformKeys(1<<14)) }

// BenchmarkByKeyWords is BenchmarkByKey on WordCount's map output.
func BenchmarkByKeyWords(b *testing.B) { benchByKey(b, wordKeys(1<<14)) }

// benchByKey times the package-level ByKey, scratch allocation included,
// on a fresh copy of base.
func benchByKey(b *testing.B, base []core.Record) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := make([]core.Record, len(base))
		copy(work, base)
		b.StartTimer()
		ByKey(work)
	}
}

func BenchmarkMerge8Runs(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	runsData := make([][]core.Record, 8)
	for i := range runsData {
		for j := 0; j < 2048; j++ {
			runsData[i] = append(runsData[i], core.Record{Key: core.EncodeUint64(rng.Uint64())})
		}
		ByKey(runsData[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rs []Run
		for _, rd := range runsData {
			rs = append(rs, NewSliceRun(rd))
		}
		m := NewMerger(rs)
		for {
			if _, ok := m.Next(); !ok {
				break
			}
		}
	}
}
