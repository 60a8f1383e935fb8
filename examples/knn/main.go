// k-nearest-neighbors with the in-process engine: a Selection-class job
// (paper Section 4.4) that keeps a bounded top-k list per key instead of
// sorting, so the barrier-less reducer uses O(k x keys) memory.
//
//	go run ./examples/knn
package main

import (
	"fmt"
	"log"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

func main() {
	const k = 5
	data := workload.KNN(7, 200_000, 10, 1_000_000)
	app := apps.KNN(k, data.Experimental)

	res, err := mr.Run(app, workload.KNNRecords(data, 0), mr.Options{Mode: mr.Pipelined, Reducers: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d training values, %d queries, k=%d, wall %v\n\n",
		len(data.Training), len(data.Experimental), k, res.Wall)
	mr.SortOutput(res.Output)
	for _, r := range res.Output {
		query := core.DecodeUint64(r.Key)
		parts := core.SplitValues(r.Value)
		fmt.Printf("query %7d  ->  neighbor %7d (distance %d)\n",
			query, core.DecodeUint64(parts[1]), core.DecodeUint64(parts[0]))
	}
}
