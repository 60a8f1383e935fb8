package reducers

import (
	"strconv"
	"testing"

	"blmr/internal/store"
)

// sumMergerRef is SumMerger's definition: whatever strconv makes of the two
// inputs (0 for garbage, the clamped bound on overflow), added with
// wrap-around, formatted. The fast path must agree with it on every string.
func sumMergerRef(a, b string) string {
	x, _ := strconv.ParseInt(a, 10, 64)
	y, _ := strconv.ParseInt(b, 10, 64)
	return strconv.FormatInt(x+y, 10)
}

func FuzzSumMerger(f *testing.F) {
	seeds := []string{
		"", "0", "007", "-3", "+3", " 1", "99", "100", "4095", "4096",
		"999999999999999999", "1000000000000000000", // 18 and 19 digits
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"abc", "12a", "1_000", "٣",
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := SumMerger(a, b), sumMergerRef(a, b); got != want {
			t.Fatalf("SumMerger(%q, %q) = %q, want %q", a, b, got, want)
		}
	})
}

// TestSumMergeHitAllocatesNothing pins the word-count reducer's per-record
// cost while a key's count is small: one store probe, one digits-only parse
// of each side, one interned result.
func TestSumMergeHitAllocatesNothing(t *testing.T) {
	for name, st := range map[string]store.Store{
		"in-memory":   store.NewMemStore(),
		"spill-merge": store.NewSpillStore(1<<20, SumMerger, nil),
	} {
		keys := []string{"alpha", "bravo", "charlie", "delta"}
		for _, k := range keys {
			st.Merge(k, "1", SumMerger)
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, k := range keys {
				st.Merge(k, "1", SumMerger)
			}
		}); n != 0 {
			t.Fatalf("%s: Merge on a present key allocated %.1f times per 4 records, want 0", name, n)
		}
	}
}

var sinkSum string

// BenchmarkSumMerger folds "1" into a running count the way word count
// does, in the two regimes a skewed job mixes: counts inside the interned
// table (most keys; no allocation) and counts beyond it (the hot keys; one
// formatted string per record).
func BenchmarkSumMerger(b *testing.B) {
	for _, c := range []struct {
		name        string
		start, wrap int
	}{{"interned", 0, len(smallSums) - 1}, {"formatted", 100_000, 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			start := strconv.Itoa(c.start)
			acc := start
			for i := 0; i < b.N; i++ {
				if i%c.wrap == 0 {
					acc = start
				}
				acc = SumMerger(acc, "1")
			}
			sinkSum = acc
		})
	}
}
