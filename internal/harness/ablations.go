package harness

import (
	"blmr/internal/apps"
	"blmr/internal/simmr"
	"blmr/internal/store"
)

// Ablations varies, one at a time, the four simulated-testbed choices
// DESIGN §9 discusses, each over WordCount in the mode the choice acts on:
// the pipelined shuffle's transfer granularity, Figure 5(b)'s 240MB
// partial-result budget, the DFS replication factor (the output pipeline's
// depth), and Hadoop's parallel-copies knob in the barrier shuffle.
func Ablations() []Sweep {
	ablate := func(id, title, xlabel string, xs []float64, sizeGB float64, reducers int, mode simmr.Mode, set func(*RunSpec, float64)) Sweep {
		ds := WordCountData(sizeGB)
		return grid(Sweep{ID: id, Title: title, XLabel: xlabel}, xs, func(x float64) RunSpec {
			spec := baseSpec(apps.WordCount(), ds, CalibWordCount, reducers)
			spec.Mode = mode
			set(&spec, x)
			return spec
		}, failedAs("FAILED"), []curve{{mode.String(), func(*RunSpec) {}}})
	}
	const barrier, pipelined = simmr.Barrier, simmr.Pipelined
	return []Sweep{
		ablate("ablation-chunk", "WordCount 8GB: completion vs shuffle transfer chunk size",
			"chunk (MB)", []float64{1, 4, 16}, 8, 60, pipelined, func(s *RunSpec, mb float64) {
				s.Cluster = PaperCluster()
				s.Cluster.TransferChunkBytes = int64(mb) << 20
			}),
		ablate("ablation-spill", "WordCount 16GB, 10 reducers, spill-merge store: completion vs spill threshold",
			"threshold (MB)", []float64{60, 240, 960}, 16, 10, pipelined, func(s *RunSpec, mb float64) {
				s.Store, s.SpillThreshold = store.SpillMerge, int64(mb)<<20
			}),
		ablate("ablation-replication", "WordCount 8GB: completion vs DFS replication factor",
			"replicas", []float64{1, 3}, 8, 60, pipelined, func(s *RunSpec, r float64) {
				s.Replication = int(r)
			}),
		ablate("ablation-fetch", "WordCount 8GB: completion vs barrier-shuffle parallel copies",
			"parallel copies", []float64{1, 5, 20}, 8, 60, barrier, func(s *RunSpec, n float64) {
				s.FetchParallelism = int(n)
			}),
	}
}
