// Quickstart: count words with the in-process engine, comparing the classic
// barrier execution against the paper's barrier-less (pipelined) mode.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"blmr/internal/apps"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

func main() {
	// 50k lines of Zipf-distributed text.
	input := workload.Text(1, 50_000, 5_000, 12)

	// An app is the engines' own job type: it runs as it is.
	job := apps.WordCount()

	barrier, err := mr.Run(job, input, mr.Options{Mode: mr.Barrier})
	if err != nil {
		log.Fatal(err)
	}
	// The pipelined shuffle moves records to the reducers as the mappers
	// emit them, 256 to a channel send (shuffle.BatchSize).
	pipelined, err := mr.Run(job, input, mr.Options{Mode: mr.Pipelined})
	if err != nil {
		log.Fatal(err)
	}
	// A map-side combiner (the app's merger) folds duplicate words before
	// they are shuffled at all.
	withCombiner, err := mr.Run(job.WithCombiner(true), input, mr.Options{Mode: mr.Pipelined})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distinct words: %d\n", len(barrier.Output))
	fmt.Printf("barrier:    %v (map %v, %d records shuffled)\n", barrier.Wall, barrier.MapWall, barrier.ShuffleRecords)
	fmt.Printf("pipelined:  %v (reduce overlapped the maps, %d records shuffled)\n", pipelined.Wall, pipelined.ShuffleRecords)
	fmt.Printf("+combiner:  %v (map-side folding, %d records shuffled)\n", withCombiner.Wall, withCombiner.ShuffleRecords)

	mr.SortOutput(pipelined.Output)
	fmt.Println("\ntop of the output:")
	for _, r := range pipelined.Output[:5] {
		fmt.Printf("  %-12s %s\n", r.Key, r.Value)
	}
}
