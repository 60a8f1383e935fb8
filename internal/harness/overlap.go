package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/simmr"
)

// OverlapSweep compares the multi-process engine's staged control plane
// (reduce wave dispatched after the whole map wave — PR 3's stage barrier)
// against the overlapped one (reduce tasks dispatched at job start,
// sealed-run routes streamed as maps finish) over the TCP run exchange, in
// both execution modes — the simulated counterpart of mpexec's
// exec.Options.Staged and the paper's Figure 4/6 claim at cluster scale.
// Overlap releases each map's sections to the fetchers the moment it
// publishes, so shuffle (and, pipelined, reduce work) hides under the map
// runway instead of queueing behind it.
func OverlapSweep(app apps.App, sizeGB float64, workerCounts []int) Sweep {
	ds, costs := WordCountData(sizeGB), CalibWordCount
	if app.Name == "sort" {
		ds, costs = SortData(sizeGB), CalibSort
	}
	variant := func(label string, mode simmr.Mode, staged bool) curve {
		return curve{label, func(s *RunSpec) { s.Mode, s.Staged = mode, staged }}
	}
	return grid(Sweep{
		ID:     "OverlapSweep",
		Title:  fmt.Sprintf("%s %.0fGB over the TCP run exchange: staged vs overlapped dispatch", app.Name, sizeGB),
		XLabel: "workers",
	}, floats(workerCounts), func(w float64) RunSpec {
		spec := baseSpec(app, ds, costs, 60)
		spec.Workers, spec.Transport = int(w), simmr.TCPRunExchange
		return spec
	}, failedAs("FAILED"), []curve{
		variant("barrier/staged", simmr.Barrier, true),
		variant("barrier/overlap", simmr.Barrier, false),
		variant("pipelined/staged", simmr.Pipelined, true),
		variant("pipelined/overlap", simmr.Pipelined, false),
	})
}
