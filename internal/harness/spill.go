package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/simmr"
)

// SpillTradeoff sweeps the external-shuffle buffer budget (JobSpec
// .SpillBytes) over an 8GB WordCount and reports the memory/throughput
// trade-off the spill architecture buys: completion time rises as the
// budget falls (more runs, more seeks, an extra merge pass) while the
// sort-phase memory bound falls with it. budgetsMB of 0 means unlimited
// (the all-in-RAM engine). The sweep is the harness-level reproduction
// hook for the disk-spill design — the simulated sibling of the wall-clock
// spill benchmarks in internal/mr.
func SpillTradeoff(budgetsMB []float64) Sweep {
	ds := WordCountData(8)
	return grid(Sweep{
		ID:     "SpillTradeoff",
		Title:  "WordCount 8GB: completion vs spill buffer budget",
		XLabel: "budget (MB)",
	}, budgetsMB, func(mb float64) RunSpec {
		spec := baseSpec(apps.WordCount(), ds, CalibWordCount, 60)
		spec.SpillBytes = int64(mb * (1 << 20))
		return spec
	}, func(_ RunSpec, res *simmr.Result) string {
		if res.SpillRuns > 0 {
			return fmt.Sprintf("%d runs", res.SpillRuns)
		}
		return ""
	}, modeCurves("barrier", "pipelined"))
}
