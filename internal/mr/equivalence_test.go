package mr

// Output-equivalence suite for the batched shuffle: for every app in
// internal/apps, barrier mode, the old record-at-a-time pipelined behavior
// (BatchSize=1) and batched pipelined mode must produce the same reduced
// output as sorted multisets, across batch sizes and queue capacities.
// Run under -race in CI: the suite doubles as a race exercise of the
// batch free-list.

import (
	"math/rand"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/workload"
)

type equivCase struct {
	name     string
	app      apps.App
	input    []core.Record
	reducers int
	// orderSensitive marks cross-key apps whose output multiset depends
	// on per-reducer arrival order (GA's crossover windows). For those we
	// pin Mappers=1 (making pipelined arrival order deterministic) and
	// compare only record counts against barrier mode, exact multisets
	// across pipelined batch sizes.
	orderSensitive bool
}

func equivalenceCases() []equivCase {
	text := workload.Text(11, 3000, 800, 8)
	knnData := workload.KNN(3, 1500, 40, 1_000_000)
	bsParams := apps.DefaultBSParams()
	bsParams.Iterations = 2000
	bsParams.Samples = 30
	return []equivCase{
		{name: "grep", app: apps.Grep("word0001"), input: text, reducers: 4},
		{name: "sort", app: apps.Sort(), input: workload.UniformKeys(2, 8000, 1<<40), reducers: 3},
		{name: "wordcount", app: apps.WordCount(), input: text, reducers: 4},
		{name: "knn", app: apps.KNN(10, knnData.Experimental),
			input: workload.KNNRecords(knnData, 0), reducers: 4},
		{name: "lastfm", app: apps.LastFM(), input: workload.Listens(4, 8000, 40, 300), reducers: 4},
		{name: "blackscholes", app: apps.BlackScholes(bsParams),
			input: workload.OptionSeeds(5, 8), reducers: 1},
		{name: "ga", app: apps.GA(50), input: workload.Individuals(6, 400, 64),
			reducers: 2, orderSensitive: true},
	}
}

func TestBatchedPipelinedEquivalence(t *testing.T) {
	queueCaps := []int{1, 2, 8, 64}
	batchSizes := []int{1, 7, 256, 4096}
	for ci, tc := range equivalenceCases() {
		ci, tc := ci, tc
		t.Run(tc.name, func(t *testing.T) {
			// Per-subtest source: subtests run in parallel and rand.Rand
			// is not goroutine-safe.
			rng := rand.New(rand.NewSource(int64(42 + ci)))
			t.Parallel()
			mappers := 4
			if tc.orderSensitive {
				mappers = 1
			}
			barrier, err := Run(tc.app, tc.input,
				Options{Mappers: mappers, Reducers: tc.reducers, Mode: Barrier})
			if err != nil {
				t.Fatalf("barrier: %v", err)
			}
			// BatchSize=1 reproduces the original record-at-a-time shuffle
			// and anchors the cross-batch-size comparison.
			var ref *Result
			for _, bs := range batchSizes {
				qc := queueCaps[rng.Intn(len(queueCaps))]
				res, err := Run(tc.app, tc.input, Options{
					Mappers: mappers, Reducers: tc.reducers, Mode: Pipelined,
					BatchSize: bs, QueueCap: qc,
				})
				if err != nil {
					t.Fatalf("pipelined batch=%d queue=%d: %v", bs, qc, err)
				}
				if tc.orderSensitive {
					if len(res.Output) != len(barrier.Output) {
						t.Fatalf("batch=%d: %d records vs barrier's %d",
							bs, len(res.Output), len(barrier.Output))
					}
				} else {
					requireSame(t, tc.name+"-vs-barrier", barrier.Output, res.Output)
				}
				if ref == nil {
					ref = res
					continue
				}
				requireSame(t, tc.name+"-vs-batch1", ref.Output, res.Output)
			}
		})
	}
}

func TestCombinerEquivalence(t *testing.T) {
	input := workload.Text(9, 4000, 500, 10)
	app := apps.WordCount()
	plain := app
	combined := app
	combined.Combiner = app.Merger

	ref, err := Run(plain, input, Options{Mappers: 4, Reducers: 4, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Barrier, Pipelined} {
		for _, bs := range []int{1, 64, 1024} {
			res, err := Run(combined, input, Options{
				Mappers: 4, Reducers: 4, Mode: mode, BatchSize: bs,
			})
			if err != nil {
				t.Fatalf("mode=%d batch=%d: %v", mode, bs, err)
			}
			requireSame(t, "combined", ref.Output, res.Output)
			// Barrier runs combine whole mapper partitions; pipelined runs
			// combine through the bounded hash buffer regardless of
			// batch size. Either way the shuffle must shrink.
			if res.ShuffleRecords >= ref.ShuffleRecords {
				t.Fatalf("mode=%d batch=%d: combiner did not cut shuffle volume: %d >= %d",
					mode, bs, res.ShuffleRecords, ref.ShuffleRecords)
			}
		}
	}
}

func TestShuffleRecordsCounted(t *testing.T) {
	input := workload.Text(3, 1000, 300, 6)
	for _, mode := range []Mode{Barrier, Pipelined} {
		res, err := Run(apps.WordCount(), input, Options{Mappers: 3, Reducers: 3, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.ShuffleRecords != int64(1000*6) {
			t.Fatalf("mode=%d: ShuffleRecords=%d, want %d", mode, res.ShuffleRecords, 1000*6)
		}
	}
}
