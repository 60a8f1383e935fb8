package harness

import (
	"fmt"

	"blmr/internal/apps"
)

// ExpHeterogeneity explores the paper's closing conjecture ("exploring
// heterogeneity in systems and how much improvement our barrier-less
// framework grants in the face of that heterogeneity"): the WordCount job
// is run on clusters of increasing CPU-speed spread. Straggling mappers
// stretch the shuffle window, and the barrier-less framework converts that
// extra mapper slack into useful reduce work, so its advantage should grow
// with heterogeneity.
func ExpHeterogeneity(spreads []float64) Sweep {
	ds := WordCountData(8)
	return sweepModes("hetero", "WordCount 8GB under CPU heterogeneity (future-work experiment)",
		"speed spread (+/-)", spreads, func(spread float64) RunSpec {
			spec := baseSpec(apps.WordCount(), ds, CalibWordCount, fig6Reducers)
			spec.Cluster = PaperCluster()
			spec.Cluster.SpeedSpread = spread
			return spec
		})
}

// HeteroSpreads are the default sweep points.
func HeteroSpreads() []float64 { return []float64{0, 0.15, 0.3, 0.45} }

// RenderHetero adds the per-point improvement column to the sweep.
func RenderHetero(sw Sweep) string {
	out := sw.Render()
	imps := Improvements(sw.Series[0], sw.Series[1])
	out += "improvement per spread:"
	for i, imp := range imps {
		out += fmt.Sprintf("  %.2f:%.1f%%", sw.Series[0].X[i], imp)
	}
	return out + "\n"
}
