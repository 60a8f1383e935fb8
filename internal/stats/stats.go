// Package stats provides the small statistical summaries the evaluation
// needs: quartile box-plot summaries (Figure 7) and percentage-improvement
// helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Box is a five-number summary.
type Box struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Summarize computes the five-number summary of xs using linear
// interpolation between order statistics (type-7 quantiles, the common
// spreadsheet definition). It panics on empty input.
func Summarize(xs []float64) Box {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Box{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// Quantile returns the q-quantile (0..1) of a sorted sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// RenderBoxes draws a textual box plot: one labeled row per box, with the
// min/Q1/median/Q3/max marked on a shared horizontal axis — the textual
// equivalent of Figure 7.
func RenderBoxes(labels []string, boxes []Box, width int) string {
	if len(labels) != len(boxes) {
		panic("stats: labels/boxes length mismatch")
	}
	if width < 20 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range boxes {
		lo = math.Min(lo, b.Min)
		hi = math.Max(hi, b.Max)
	}
	if lo == hi {
		hi = lo + 1
	}
	scale := func(v float64) int {
		p := int(float64(width-1) * (v - lo) / (hi - lo))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	var sb strings.Builder
	for i, b := range boxes {
		row := make([]byte, width)
		for j := range row {
			row[j] = ' '
		}
		for j := scale(b.Min); j <= scale(b.Max); j++ {
			row[j] = '-'
		}
		for j := scale(b.Q1); j <= scale(b.Q3); j++ {
			row[j] = '='
		}
		row[scale(b.Min)] = '|'
		row[scale(b.Max)] = '|'
		row[scale(b.Median)] = 'M'
		fmt.Fprintf(&sb, "%-8s %s  min=%6.1f q1=%6.1f med=%6.1f q3=%6.1f max=%6.1f\n",
			labels[i], string(row), b.Min, b.Q1, b.Median, b.Q3, b.Max)
	}
	fmt.Fprintf(&sb, "%-8s %-*.1f%*.1f\n", "scale", width/2, lo, width/2, hi)
	return sb.String()
}
