package harness

import (
	"blmr/internal/apps"
)

// Figure 6: job completion times, with and without barrier, for the six
// case-study applications. Default reducer count is the cluster's full
// reduce capacity (60), as in the paper's setup of 4 reducers per node.

// fig6Reducers is the reduce-task count used across Figure 6.
const fig6Reducers = 60

// sweepModes runs base(x) at each x in both modes: the shape of Figures 6
// and 8 and of the heterogeneity experiment.
func sweepModes(id, title, xlabel string, xs []float64, base func(x float64) RunSpec) Sweep {
	return grid(Sweep{ID: id, Title: title, XLabel: xlabel}, xs, base, failedAs("OOM"),
		modeCurves("with barrier", "without barrier"))
}

// Fig6Sort reproduces Figure 6(a): sort completion vs input size.
func Fig6Sort(sizesGB []float64) Sweep {
	return sweepModes("fig6a", "Sort", "input size (GB)", sizesGB, func(gb float64) RunSpec {
		return baseSpec(apps.Sort(), SortData(gb), CalibSort, fig6Reducers)
	})
}

// Fig6WordCount reproduces Figure 6(b): word count vs input size.
func Fig6WordCount(sizesGB []float64) Sweep {
	return sweepModes("fig6b", "WordCount", "input size (GB)", sizesGB, func(gb float64) RunSpec {
		return baseSpec(apps.WordCount(), WordCountData(gb), CalibWordCount, fig6Reducers)
	})
}

// Fig6KNN reproduces Figure 6(c): k-nearest neighbors vs input size.
func Fig6KNN(sizesGB []float64) Sweep {
	return sweepModes("fig6c", "k-Nearest Neighbors", "input size (GB)", sizesGB, func(gb float64) RunSpec {
		ds, exp := KNNData(gb)
		return baseSpec(apps.KNN(knnK, exp), ds, CalibKNN, fig6Reducers)
	})
}

// Fig6LastFM reproduces Figure 6(d): Last.fm unique listens vs input size.
func Fig6LastFM(sizesGB []float64) Sweep {
	return sweepModes("fig6d", "Last.fm Post Processing", "input size (GB)", sizesGB, func(gb float64) RunSpec {
		return baseSpec(apps.LastFM(), LastFMData(gb), CalibLastFM, fig6Reducers)
	})
}

// Fig6GA reproduces Figure 6(e): genetic algorithm vs number of mappers
// (40 reducers, as in the paper).
func Fig6GA(mappers []float64) Sweep {
	return sweepModes("fig6e", "Genetic Algorithms", "number of mappers", mappers, func(m float64) RunSpec {
		return baseSpec(apps.GA(gaWindow), GAData(int(m)), CalibGA, 40)
	})
}

// Fig6BlackScholes reproduces Figure 6(f): Black-Scholes vs number of
// mappers (single reducer).
func Fig6BlackScholes(mappers []float64) Sweep {
	return sweepModes("fig6f", "Black-Scholes", "number of mappers", mappers, func(m float64) RunSpec {
		return baseSpec(apps.BlackScholes(BSPaperParams()), BSData(int(m)), CalibBS, 1)
	})
}

// PaperSizesGB are the input sizes of Figures 6(a)-(d).
func PaperSizesGB() []float64 { return []float64{2, 4, 8, 16} }

// PaperGAMappers are the x values of Figure 6(e).
func PaperGAMappers() []float64 { return []float64{50, 100, 150, 200, 250} }

// PaperBSMappers are the x values of Figure 6(f).
func PaperBSMappers() []float64 { return []float64{25, 50, 100, 150, 200} }
