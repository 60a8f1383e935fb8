package store

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestDecimalWidth checks the arithmetic digit count against the formatted
// length on both sides of every power of ten, both signs, and the ends of
// the int64 range.
func TestDecimalWidth(t *testing.T) {
	ns := []int64{0, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for p := int64(1); ; p *= 10 {
		ns = append(ns, p-1, p, p+1, -p-1, -p, -p+1)
		if p > math.MaxInt64/10 {
			break
		}
	}
	for b := 0; b < 63; b++ { // and both sides of every power of two
		p := int64(1) << b
		ns = append(ns, p-1, p, p+1, -p)
	}
	for _, n := range ns {
		if got, want := decimalWidth(n), len(strconv.FormatInt(n, 10)); got != want {
			t.Errorf("decimalWidth(%d) = %d, want %d", n, got, want)
		}
	}
}

// FuzzMergeSum runs one key's values, comma-separated, through MergeSum on
// one store and Merge with SumMerger on another: the value and MemBytes must agree
// after every call, and Emit at the end.
func FuzzMergeSum(f *testing.F) {
	for _, seed := range []string{
		"1,1,1", "007", "007,1", " 1,2", "-3,5,-2", "abc,1", "+7,0", "", ",",
		"4095,1", "4096,-1,1", "9999999999999999999,1", // 19 digits: clamped
		"9223372036854775807,1", // wraps to MinInt64
		"-9223372036854775808,-1", "99999999999999999999,-99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seq string) {
		sum, merge := NewMemStore(), NewMemStore()
		for i, v := range strings.Split(seq, ",") {
			sum.MergeSum("k", v)
			merge.Merge("k", v, SumMerger)
			want, _ := merge.t.get("k")
			if got := peek(&sum.t, 0); got != want || sum.MemBytes() != merge.MemBytes() {
				t.Fatalf("value %d (%q): %q and %d bytes, Merge's %q and %d",
					i, v, got, sum.MemBytes(), want, merge.MemBytes())
			}
			// Every third step reads the sum back as merge does, which formats
			// it, so folds start from both a running sum and a string.
			if i%3 == 2 {
				if got, _ := sum.t.get("k"); got != want {
					t.Fatalf("value %d (%q): read back %q, Merge's %q", i, v, got, want)
				}
			}
		}
		a, b := &sink{}, &sink{}
		sum.Emit(a)
		merge.Emit(b)
		if len(a.recs) != 1 || len(b.recs) != 1 || a.recs[0] != b.recs[0] {
			t.Fatalf("Emit = %v, Merge's %v", a.recs, b.recs)
		}
	})
}

var sinkSum string

// BenchmarkSumMerger folds "1" into a running count the way word count
// did before MergeSum, in the two regimes a skewed job mixes: counts inside
// the interned table (most keys; no allocation) and counts beyond it (the
// hot keys; one formatted string per record).
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
