package harness

import (
	"blmr/internal/apps"
)

// fig8Mappers fixes the GA workload size while the reducer count varies.
const fig8Mappers = 150

// Fig8 reproduces Figure 8: genetic algorithm completion time vs number of
// reducers (30..70 on a 60-reduce-slot cluster — the 70 case forces a
// second reducer wave, which re-inflates mapper slack and with it the
// barrier-less advantage).
func Fig8(reducers []float64) Sweep {
	ds := GAData(fig8Mappers)
	return sweepModes("fig8", "Genetic Algorithm with varying reducers (150 mappers)",
		"number of reducers", reducers, func(r float64) RunSpec {
			return baseSpec(apps.GA(gaWindow), ds, CalibGA, int(r))
		})
}

// PaperFig8Reducers are the x values of Figure 8.
func PaperFig8Reducers() []float64 { return []float64{30, 40, 50, 60, 70} }
