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

// FuzzSumMerger checks store.SumMerger, the merge function of the sorting
// and aggregation stream reducers, against its strconv definition.
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
		if got, want := store.SumMerger(a, b), sumMergerRef(a, b); got != want {
			t.Fatalf("SumMerger(%q, %q) = %q, want %q", a, b, got, want)
		}
	})
}

// TestSumMergeHitAllocatesNothing pins the word-count reducer's per-record
// cost on a key already present. Merge with SumMerger — the combiner's and
// the KV store's fold, and SpillStore.Emit's fold of runs — is one probe,
// a digits-only parse of each side and an interned result while counts stay
// below 4096. MergeSum is one probe and an add at any count; past 4096, a
// fold that formatted its result would allocate once a record.
func TestSumMergeHitAllocatesNothing(t *testing.T) {
	for name, st := range map[string]store.Store{
		"in-memory":   store.NewMemStore(),
		"spill-merge": store.NewSpillStore(1<<20, store.SumMerger, nil, nil),
	} {
		keys := []string{"alpha", "bravo", "charlie", "delta"}
		for _, k := range keys {
			// Start at 1000: strconv.FormatInt allocates nothing below 100
			// either, so lower counts would not tell the interned table
			// from it.
			st.Merge(k, "1000", store.SumMerger)
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, k := range keys {
				st.Merge(k, "1", store.SumMerger)
			}
		}); n != 0 {
			t.Fatalf("%s: Merge on a present key allocated %.1f times per 4 records, want 0", name, n)
		}
		for _, start := range []string{"1", "5000", "9999999999"} {
			for _, k := range keys {
				st.MergeSum(k, start)
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, k := range keys {
					st.MergeSum(k, "1")
				}
			}); n != 0 {
				t.Fatalf("%s: MergeSum on a present key past %s allocated %.1f times per 4 records, want 0", name, start, n)
			}
		}
	}
}
