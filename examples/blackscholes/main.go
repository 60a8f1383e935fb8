// Black-Scholes Monte-Carlo pricing: the paper's best case for breaking the
// barrier (Section 6.1.6). A single reducer folds every sampled value into
// O(1) running sums; the barrier version instead sorts millions of values
// it never needed sorted. This example runs both on the simulated cluster
// and checks the price against the closed-form solution.
//
//	go run ./examples/blackscholes
package main

import (
	"fmt"
	"strconv"

	"blmr/internal/apps"
	"blmr/internal/harness"
	"blmr/internal/simmr"
)

func main() {
	const mappers = 100
	params := harness.BSPaperParams()
	ds := harness.BSData(mappers)

	var prices [2]float64
	var times [2]float64
	for i, mode := range []simmr.Mode{simmr.Barrier, simmr.Pipelined} {
		res := harness.Run(harness.RunSpec{Data: ds, JobSpec: simmr.JobSpec{
			Job: apps.BlackScholes(params), Mode: mode, Reducers: 1, Costs: harness.CalibBS,
		}})
		times[i] = res.Completion
		for _, r := range res.Output {
			if r.Key == "mean" {
				prices[i], _ = strconv.ParseFloat(r.Value, 64)
			}
		}
	}

	analytic := apps.BSAnalytic(params)
	fmt.Printf("%d mappers, 1 reducer\n", mappers)
	fmt.Printf("with barrier:    %6.1fs  price %.4f\n", times[0], prices[0])
	fmt.Printf("without barrier: %6.1fs  price %.4f\n", times[1], prices[1])
	fmt.Printf("analytic price:  %.4f\n", analytic)
	fmt.Printf("improvement:     %.1f%%\n", 100*(times[0]-times[1])/times[0])
}
