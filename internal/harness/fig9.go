package harness

import (
	"blmr/internal/apps"
	"blmr/internal/simmr"
	"blmr/internal/store"
)

// Figures 9 and 10 compare the memory-management techniques on WordCount:
// the classic barrier, and the barrier-less framework with the in-memory
// store (OOMs when partial results exceed the heap), the disk
// spill-and-merge store, and the off-the-shelf-style key/value store.

// memTechniqueSweep runs the four configurations of base(x) at each x.
func memTechniqueSweep(id, title, xlabel string, xs []float64, base func(x float64) RunSpec) Sweep {
	pipelined := func(s *RunSpec) {
		s.Mode = simmr.Pipelined
		s.HeapBudget = fig5HeapMB << 20
	}
	return grid(Sweep{ID: id, Title: title, XLabel: xlabel}, xs, base, failedAs("OOM"), []curve{
		{"with barrier", func(s *RunSpec) { s.Mode = simmr.Barrier }},
		{"in-memory", pipelined},
		{"spill merge", func(s *RunSpec) {
			pipelined(s)
			s.Store, s.SpillThreshold = store.SpillMerge, fig5SpillMB<<20
		}},
		{"berkeleydb-style kv", func(s *RunSpec) {
			pipelined(s)
			s.Store = store.KV
		}},
	})
}

// Fig9 reproduces Figure 9: WordCount (16GB) memory-management techniques
// vs number of reducers. The in-memory store OOMs at low reducer counts
// where per-reducer partial results exceed the heap.
func Fig9(reducers []float64) Sweep {
	ds := WordCountData(fig5SizeGB)
	return memTechniqueSweep("fig9",
		"WordCount 16GB: memory management vs number of reducers",
		"number of reducers", reducers, func(r float64) RunSpec {
			return baseSpec(apps.WordCount(), ds, CalibWordCount, int(r))
		})
}

// PaperFig9Reducers are the x values of Figure 9.
func PaperFig9Reducers() []float64 { return []float64{10, 20, 30, 40, 50, 60, 70} }

// Fig10 reproduces Figure 10: the same four techniques vs dataset size at a
// fixed reducer count (30).
func Fig10(sizesGB []float64) Sweep {
	return memTechniqueSweep("fig10",
		"WordCount: memory management vs dataset size (30 reducers)",
		"input size (GB)", sizesGB, func(gb float64) RunSpec {
			return baseSpec(apps.WordCount(), WordCountData(gb), CalibWordCount, 30)
		})
}

// PaperFig10Sizes are the x values of Figure 10.
func PaperFig10Sizes() []float64 { return []float64{4, 8, 12, 16, 20, 24} }
