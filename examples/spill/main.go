// External shuffle: the memorypressure example's wall-clock sibling. That
// demo shows the *simulated* cluster surviving Figure 5's heap squeeze;
// this one proves the real-concurrency engine does it for real: a sort
// whose intermediate data is ~50x a 1MiB buffer budget runs twice — once
// all-in-RAM, once with Options.SpillBytes — and the bounded run completes
// with its partial-result footprint pinned near the budget, its overflow
// sorted, codec-encoded and sealed to real spill files, and its output
// byte-identical to the unbounded run.
//
//	go run ./examples/spill
package main

import (
	"fmt"
	"os"
	"runtime"

	"blmr/internal/apps"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

const budget = 1 << 20 // 1MiB of buffered intermediate data per task

func main() {
	// ~1M records, ~35MB of reducer partial results when unbounded.
	input := workload.UniformKeys(42, 1_000_000, 1<<40)
	job := apps.Sort()

	unbounded, err := mr.Run(job, input, mr.Options{Mode: mr.Pipelined, Mappers: 4, Reducers: 4})
	if err != nil {
		panic(err)
	}

	bounded, err := mr.Run(job, input, mr.Options{
		Mode: mr.Pipelined, Mappers: 4, Reducers: 4,
		SpillBytes: budget,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("input: %d records; buffer budget: %d KiB\n\n", len(input), budget>>10)
	fmt.Printf("%-12s %18s %12s %12s\n", "run", "peak partials (KB)", "spill runs", "spilled (MB)")
	fmt.Printf("%-12s %18d %12d %12.1f\n", "unbounded",
		unbounded.PeakPartialBytes>>10, unbounded.Spills, float64(unbounded.SpilledBytes)/(1<<20))
	fmt.Printf("%-12s %18d %12d %12.1f\n\n", "spill-bytes",
		bounded.PeakPartialBytes>>10, bounded.Spills, float64(bounded.SpilledBytes)/(1<<20))

	same := len(unbounded.Output) == len(bounded.Output)
	if same {
		ua, ba := unbounded.Output, bounded.Output
		mr.SortOutput(ua)
		mr.SortOutput(ba)
		for i := range ua {
			if ua[i] != ba[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("outputs identical: %v\n", same)
	fmt.Printf("live heap after both runs: ~%d MB (unbounded run peaked the accounted partials at %dx the budget; the bounded run stayed at %.1fx)\n",
		liveHeapMB(),
		unbounded.PeakPartialBytes/budget,
		float64(bounded.PeakPartialBytes)/budget)
	if bounded.PeakPartialBytes <= 4*budget && bounded.Spills > 0 && same {
		fmt.Println("Intermediate data larger than memory: completed with bounded partial-result memory.")
	} else {
		fmt.Println("FAILED: the memory bound or output equivalence did not hold.")
		os.Exit(1)
	}
}

func liveHeapMB() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc >> 20
}
