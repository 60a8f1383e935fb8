package store

import (
	"math/bits"
	"strconv"
)

// SumMerger adds two decimal-integer partials: the word-count combiner, and
// the merger of every store that MergeSum folds into. Each side is read as
// strconv.ParseInt reads it with the error ignored — 0 for garbage, the
// clamped bound on overflow — the two are added with int64 wrap-around, and
// the sum is formatted as strconv.FormatInt formats it. The in-memory and
// spill stores' MergeSum keeps the same sum as a number between folds, so
// this is the one definition of what a sum of partials is.
func SumMerger(a, b string) string {
	// parseSum(a) + parseSum(b), with both digit loops inlined: the barrier
	// reducer and the combiner call this once a record.
	x, okx := parseCount(a)
	y, oky := parseCount(b)
	if !okx || !oky {
		x, y = parseSum(a), parseSum(b)
	}
	return formatSum(x + y)
}

// parseSum is strconv.ParseInt(s, 10, 64) with the error ignored. A plain
// count — all a word count ever produces — takes a digits-only loop. It is
// too large to inline, so the per-record callers run parseCount first and
// call parseSum only when that fails.
func parseSum(s string) int64 {
	if n, ok := parseCount(s); ok {
		return n
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

// parseCount parses a string of 1 to 18 ASCII digits: the inputs on which
// strconv.ParseInt cannot fail or overflow.
func parseCount(s string) (int64, bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	return n, true
}

// formatSum is strconv.FormatInt(n, 10), with sums below 4096 taken from a
// table instead of a fresh string.
func formatSum(n int64) string {
	if uint64(n) < uint64(len(smallSums)) {
		return smallSums[n]
	}
	return strconv.FormatInt(n, 10)
}

// smallSums interns the decimal form of every sum below 4096, built once.
var smallSums = func() (t [4096]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// decimalWidth is len(strconv.FormatInt(n, 10)), computed without
// formatting: the bytes a running sum's slot is charged for.
func decimalWidth(n int64) int {
	u, sign := uint64(n), 0
	if n < 0 {
		u, sign = -u, 1 // -MinInt64 wraps to 1<<63, its magnitude
	}
	u |= 1 // 0 has one digit, like 1; no power of ten above 1 is odd
	// With b = bits.Len64(u), b·1233>>12 is ⌊b·log10 2⌋ for every b ≤ 64,
	// and u, in [2^(b-1), 2^b), has that many digits or one more: one more
	// exactly when u reaches the next power of ten.
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	return sign + d
}

// pow10[i] is 10^i; 10^19 is the largest power of ten a uint64 holds.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
