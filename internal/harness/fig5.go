package harness

import (
	"fmt"
	"strings"

	"blmr/internal/apps"
	"blmr/internal/metrics"
	"blmr/internal/simmr"
	"blmr/internal/store"
)

// Figure 5 parameters: 16GB WordCount, 10 reducers, a 1400MB reducer heap,
// and a 240MB spill threshold for the managed run — the paper's setup.
const (
	fig5SizeGB   = 16
	fig5Reducers = 10
	fig5HeapMB   = 1400
	fig5SpillMB  = 240
)

// Fig5Result reproduces Figure 5: reducer heap usage over time for the
// unmanaged in-memory store (OOM kill) vs disk spill-and-merge (completes).
type Fig5Result struct {
	InMemory, Spill *simmr.Result
	// HottestSeries are the heap samples of the reducer with the highest
	// peak in each run.
	InMemorySeries, SpillSeries []metrics.MemSample
}

// Fig5 runs both memory-management configurations.
func Fig5() Fig5Result {
	ds := WordCountData(fig5SizeGB)
	mem := baseSpec(apps.WordCount(), ds, CalibWordCount, fig5Reducers)
	mem.Mode, mem.HeapBudget = simmr.Pipelined, fig5HeapMB<<20
	spill := mem
	spill.Store, spill.SpillThreshold = store.SpillMerge, fig5SpillMB<<20

	r1 := Run(mem)
	r2 := Run(spill)
	return Fig5Result{
		InMemory:       r1,
		Spill:          r2,
		InMemorySeries: hottestSeries(r1),
		SpillSeries:    hottestSeries(r2),
	}
}

func hottestSeries(r *simmr.Result) []metrics.MemSample {
	var best []metrics.MemSample
	var peak int64 = -1
	for _, id := range r.Metrics.SortedReducerIDs() {
		s := r.Metrics.MemSeries(id)
		for _, m := range s {
			if m.Bytes > peak {
				peak = m.Bytes
				best = s
			}
		}
	}
	return best
}

// Render formats the Figure 5 report: heap-over-time for both runs.
func (f Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig5: WordCount %dGB, %d reducers, heap cap %d MB\n", fig5SizeGB, fig5Reducers, fig5HeapMB)
	fmt.Fprintf(&b, "(a) in-memory: failed=%v (%s) at %.1fs, peak heap %d MB\n",
		f.InMemory.Failed, f.InMemory.FailReason, f.InMemory.Completion, peakMB(f.InMemorySeries))
	fmt.Fprintf(&b, "(b) spill-and-merge @%dMB: failed=%v, completed %.1fs, peak heap %d MB, spills %d\n\n",
		fig5SpillMB, f.Spill.Failed, f.Spill.Completion, peakMB(f.SpillSeries), f.Spill.Spills)
	b.WriteString(renderMemSeries("(a) in-memory heap (hottest reducer)", f.InMemorySeries))
	b.WriteByte('\n')
	b.WriteString(renderMemSeries("(b) spill-and-merge heap (hottest reducer)", f.SpillSeries))
	return b.String()
}

func peakMB(s []metrics.MemSample) int64 {
	var peak int64
	for _, m := range s {
		if m.Bytes > peak {
			peak = m.Bytes
		}
	}
	return peak >> 20
}

// renderMemSeries prints a compact time/MB table with a bar sparkline.
func renderMemSeries(title string, s []metrics.MemSample) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(s) == 0 {
		b.WriteString("  (no samples)\n")
		return b.String()
	}
	peak := int64(1)
	for _, m := range s {
		if m.Bytes > peak {
			peak = m.Bytes
		}
	}
	// Downsample to at most 24 rows.
	stride := len(s)/24 + 1
	for i := 0; i < len(s); i += stride {
		m := s[i]
		bar := strings.Repeat("#", int(40*m.Bytes/peak))
		fmt.Fprintf(&b, "  %8.1fs %6d MB %s\n", m.T, m.Bytes>>20, bar)
	}
	last := s[len(s)-1]
	fmt.Fprintf(&b, "  %8.1fs %6d MB (final)\n", last.T, last.Bytes>>20)
	return b.String()
}
