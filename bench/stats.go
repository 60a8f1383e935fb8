package main

import (
	"cmp"
	"slices"
	"time"

	"blmr/internal/core"
	"blmr/internal/mr"
	"blmr/internal/stats"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats.Quantile(s, p/100)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the percentiles a report may quote, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the largest of tailPercentiles that still has at
// least ten of n samples beyond it — the highest percentile a sample of that
// size supports — or 0 when even the median has fewer than ten beyond.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// sortedRecords returns a (key, value)-sorted copy of recs: the canonical
// form pipelined outputs are compared in.
func sortedRecords(recs []core.Record) []core.Record {
	s := slices.Clone(recs)
	mr.SortOutput(s)
	return s
}

// multisetEqual reports whether got holds exactly the records of
// sortedWant, in any order. sortedWant must come from sortedRecords.
func multisetEqual(got, sortedWant []core.Record) bool {
	if len(got) != len(sortedWant) {
		return false
	}
	return slices.Equal(sortedRecords(got), sortedWant)
}

// interval is a half-open time range on the recorder's clock.
type interval struct{ start, end time.Duration }

// covered returns how much of [start, end) the intervals cover, counting
// overlapping and nested intervals once.
func covered(start, end time.Duration, ivs []interval) time.Duration {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var total time.Duration
	at := start
	for _, iv := range s {
		lo, hi := max(iv.start, at), min(iv.end, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans cover.
func selfTime(start, end time.Duration, children []interval) time.Duration {
	return (end - start) - covered(start, end, children)
}
