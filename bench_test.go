package blmr_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md and
// wall-clock benchmarks of the real-concurrency engine. Simulated-cluster
// benchmarks report virtual job completion seconds as "vsec/job" alongside
// the usual wall-clock ns/op of running the simulation itself.

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/harness"
	"blmr/internal/mr"
	"blmr/internal/simmr"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// benchRun executes a RunSpec b.N times, reporting virtual completion time.
func benchRun(b *testing.B, spec harness.RunSpec) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res := harness.Run(spec)
		if res.Failed && spec.HeapBudgetMB == 0 {
			b.Fatalf("job failed: %s", res.FailReason)
		}
		last = res.Completion
	}
	b.ReportMetric(last, "vsec/job")
}

// --- Figure 4: WordCount progress, 3GB -------------------------------------

func BenchmarkFig4WordCount3GB_Barrier(b *testing.B) {
	ds := harness.WordCountData(3)
	benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds, Mode: simmr.Barrier,
		Reducers: 60, Costs: harness.CalibWordCount})
}

func BenchmarkFig4WordCount3GB_Pipelined(b *testing.B) {
	ds := harness.WordCountData(3)
	benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds, Mode: simmr.Pipelined,
		Reducers: 60, Costs: harness.CalibWordCount})
}

// --- Figure 5: memory management under a 1400MB heap -----------------------

func BenchmarkFig5SpillMerge16GB(b *testing.B) {
	ds := harness.WordCountData(16)
	benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds, Mode: simmr.Pipelined,
		Reducers: 10, Store: store.SpillMerge, SpillThresholdMB: 240,
		HeapBudgetMB: 1400, Costs: harness.CalibWordCount})
}

func BenchmarkFig5InMemoryOOM16GB(b *testing.B) {
	ds := harness.WordCountData(16)
	for i := 0; i < b.N; i++ {
		res := harness.Run(harness.RunSpec{App: apps.WordCount(), Data: ds,
			Mode: simmr.Pipelined, Reducers: 10, Store: store.InMemory,
			HeapBudgetMB: 1400, Costs: harness.CalibWordCount})
		if !res.Failed {
			b.Fatal("expected OOM")
		}
	}
}

// --- Figure 6: one benchmark per panel at a representative point ------------

func fig6Bench(b *testing.B, app apps.App, ds harness.Dataset, costs simmr.CostModel, mode simmr.Mode, reducers int) {
	b.Helper()
	benchRun(b, harness.RunSpec{App: app, Data: ds, Mode: mode, Reducers: reducers, Costs: costs})
}

func BenchmarkFig6Sort8GB_Barrier(b *testing.B) {
	fig6Bench(b, apps.Sort(), harness.SortData(8), harness.CalibSort, simmr.Barrier, 60)
}
func BenchmarkFig6Sort8GB_Pipelined(b *testing.B) {
	fig6Bench(b, apps.Sort(), harness.SortData(8), harness.CalibSort, simmr.Pipelined, 60)
}
func BenchmarkFig6WordCount8GB_Barrier(b *testing.B) {
	fig6Bench(b, apps.WordCount(), harness.WordCountData(8), harness.CalibWordCount, simmr.Barrier, 60)
}
func BenchmarkFig6WordCount8GB_Pipelined(b *testing.B) {
	fig6Bench(b, apps.WordCount(), harness.WordCountData(8), harness.CalibWordCount, simmr.Pipelined, 60)
}
func BenchmarkFig6KNN8GB_Barrier(b *testing.B) {
	ds, exp := harness.KNNData(8)
	fig6Bench(b, apps.KNN(10, exp), ds, harness.CalibKNN, simmr.Barrier, 60)
}
func BenchmarkFig6KNN8GB_Pipelined(b *testing.B) {
	ds, exp := harness.KNNData(8)
	fig6Bench(b, apps.KNN(10, exp), ds, harness.CalibKNN, simmr.Pipelined, 60)
}
func BenchmarkFig6LastFM8GB_Barrier(b *testing.B) {
	fig6Bench(b, apps.LastFM(), harness.LastFMData(8), harness.CalibLastFM, simmr.Barrier, 60)
}
func BenchmarkFig6LastFM8GB_Pipelined(b *testing.B) {
	fig6Bench(b, apps.LastFM(), harness.LastFMData(8), harness.CalibLastFM, simmr.Pipelined, 60)
}
func BenchmarkFig6GA150_Barrier(b *testing.B) {
	fig6Bench(b, apps.GA(200), harness.GAData(150), harness.CalibGA, simmr.Barrier, 40)
}
func BenchmarkFig6GA150_Pipelined(b *testing.B) {
	fig6Bench(b, apps.GA(200), harness.GAData(150), harness.CalibGA, simmr.Pipelined, 40)
}
func BenchmarkFig6BlackScholes100_Barrier(b *testing.B) {
	fig6Bench(b, apps.BlackScholes(harness.BSPaperParams()), harness.BSData(100), harness.CalibBS, simmr.Barrier, 1)
}
func BenchmarkFig6BlackScholes100_Pipelined(b *testing.B) {
	fig6Bench(b, apps.BlackScholes(harness.BSPaperParams()), harness.BSData(100), harness.CalibBS, simmr.Pipelined, 1)
}

// --- Figure 7: derived from Figure 6; benchmark the box-plot computation ----

func BenchmarkFig7Improvements(b *testing.B) {
	sw := harness.Fig6WordCount([]float64{2, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = harness.Improvements(sw.Series[0], sw.Series[1])
	}
}

// --- Figure 8: GA reducer sweep; benchmark the second-wave case -------------

func BenchmarkFig8GA70Reducers_Barrier(b *testing.B) {
	fig6Bench(b, apps.GA(200), harness.GAData(150), harness.CalibGA, simmr.Barrier, 70)
}
func BenchmarkFig8GA70Reducers_Pipelined(b *testing.B) {
	fig6Bench(b, apps.GA(200), harness.GAData(150), harness.CalibGA, simmr.Pipelined, 70)
}

// --- Figures 9/10: memory-management techniques, 16GB, 30 reducers ----------

func fig9Bench(b *testing.B, kind store.Kind) {
	b.Helper()
	ds := harness.WordCountData(16)
	benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds, Mode: simmr.Pipelined,
		Reducers: 30, Store: kind, SpillThresholdMB: 240, KVCacheMB: 512,
		Costs: harness.CalibWordCount})
}

func BenchmarkFig9Barrier(b *testing.B) {
	ds := harness.WordCountData(16)
	benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds, Mode: simmr.Barrier,
		Reducers: 30, Costs: harness.CalibWordCount})
}
func BenchmarkFig9InMemory(b *testing.B)   { fig9Bench(b, store.InMemory) }
func BenchmarkFig9SpillMerge(b *testing.B) { fig9Bench(b, store.SpillMerge) }
func BenchmarkFig9KVStore(b *testing.B)    { fig9Bench(b, store.KV) }

// --- Tables ------------------------------------------------------------------

func BenchmarkTable1Measurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := harness.Table1(); len(rows) != 7 {
			b.Fatal("bad table1")
		}
	}
}

func BenchmarkTable2LoCCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md design choices) ------------------------------------

// AblationChunkSize varies the pipelined shuffle's transfer granularity.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, mb := range []int64{1, 4, 16} {
		mb := mb
		b.Run(sizeName(mb), func(b *testing.B) {
			ds := harness.WordCountData(8)
			cl := harness.PaperCluster()
			cl.TransferChunkBytes = mb << 20
			benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds,
				Mode: simmr.Pipelined, Reducers: 60, Costs: harness.CalibWordCount,
				Cluster: cl})
		})
	}
}

func sizeName(mb int64) string {
	switch mb {
	case 1:
		return "1MB"
	case 4:
		return "4MB"
	default:
		return "16MB"
	}
}

// AblationSpillThreshold varies Figure 5(b)'s 240MB partial-result budget.
func BenchmarkAblationSpillThreshold(b *testing.B) {
	for _, th := range []int{60, 240, 960} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			ds := harness.WordCountData(16)
			benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds,
				Mode: simmr.Pipelined, Reducers: 10, Store: store.SpillMerge,
				SpillThresholdMB: th, Costs: harness.CalibWordCount})
		})
	}
}

func thName(th int) string {
	switch th {
	case 60:
		return "60MB"
	case 240:
		return "240MB"
	default:
		return "960MB"
	}
}

// AblationReplication varies the DFS replication factor (output pipeline
// depth).
func BenchmarkAblationReplication(b *testing.B) {
	for _, repl := range []int{1, 3} {
		repl := repl
		name := "r1"
		if repl == 3 {
			name = "r3"
		}
		b.Run(name, func(b *testing.B) {
			ds := harness.WordCountData(8)
			benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds,
				Mode: simmr.Pipelined, Reducers: 60, Costs: harness.CalibWordCount,
				Replication: repl})
		})
	}
}

// AblationFetchParallelism varies Hadoop's parallel-copies knob in the
// barrier shuffle.
func BenchmarkAblationFetchParallelism(b *testing.B) {
	for _, par := range []int{1, 5, 20} {
		par := par
		name := map[int]string{1: "p1", 5: "p5", 20: "p20"}[par]
		b.Run(name, func(b *testing.B) {
			ds := harness.WordCountData(8)
			benchRun(b, harness.RunSpec{App: apps.WordCount(), Data: ds,
				Mode: simmr.Barrier, Reducers: 60, Costs: harness.CalibWordCount,
				FetchParallelism: par})
		})
	}
}

// --- Wall-clock benchmarks of the real-concurrency engine --------------------

func mrJob(app apps.App) mr.Job {
	return mr.Job{Name: app.Name, Mapper: app.Mapper, NewGroup: app.NewGroup,
		NewStream: app.NewStream, Merger: app.Merger}
}

func BenchmarkMRWordCount_Barrier(b *testing.B) {
	input := workload.Text(1, 20000, 5000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Run(mrJob(apps.WordCount()), input, mr.Options{Mode: mr.Barrier, Mappers: 4, Reducers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRWordCount_Pipelined(b *testing.B) {
	input := workload.Text(1, 20000, 5000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Run(mrJob(apps.WordCount()), input, mr.Options{Mode: mr.Pipelined, Mappers: 4, Reducers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// The unbatched (BatchSize=1) variant is the original record-at-a-time
// shuffle, kept as the perf-trajectory baseline; the combiner variant is
// the full WordCount fast path (see internal/mr/mr_bench_test.go for the
// 1M-record versions).
func BenchmarkMRWordCount_PipelinedUnbatched(b *testing.B) {
	input := workload.Text(1, 20000, 5000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// QueueCap 1024 restores the pre-batching engine's per-reducer
		// record buffer (QueueCap now counts batches).
		if _, err := mr.Run(mrJob(apps.WordCount()), input, mr.Options{Mode: mr.Pipelined, Mappers: 4, Reducers: 4, BatchSize: 1, QueueCap: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRWordCount_PipelinedCombiner(b *testing.B) {
	input := workload.Text(1, 20000, 5000, 10)
	job := mrJob(apps.WordCount())
	job.Combiner = job.Merger
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Run(job, input, mr.Options{Mode: mr.Pipelined, Mappers: 4, Reducers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRSort_Barrier(b *testing.B) {
	input := workload.UniformKeys(2, 100000, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Run(mrJob(apps.Sort()), input, mr.Options{Mode: mr.Barrier, Mappers: 4, Reducers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRSort_Pipelined(b *testing.B) {
	input := workload.UniformKeys(2, 100000, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.Run(mrJob(apps.Sort()), input, mr.Options{Mode: mr.Pipelined, Mappers: 4, Reducers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// AblationCombiner measures the map-side combiner's effect on WordCount.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			ds := harness.WordCountData(8)
			var last float64
			for i := 0; i < b.N; i++ {
				e := simmr.NewEngine(simmr.Config{
					Cluster: harness.PaperCluster(), Replication: 3,
					ByteScale: ds.ByteScale, RecordScale: ds.RecordScale, FailMapTask: -1,
				})
				f := e.Ingest("in", ds.Splits)
				app := apps.WordCount()
				job := simmr.JobSpec{Name: app.Name, Mapper: app.Mapper,
					NewGroup: app.NewGroup, NewStream: app.NewStream, Merger: app.Merger,
					Reducers: 60, Mode: simmr.Pipelined, Costs: harness.CalibWordCount}
				if on {
					job.Combiner = app.Merger
				}
				res := e.Run(job, f)
				last = res.Completion
			}
			b.ReportMetric(last, "vsec/job")
		})
	}
}

// BenchmarkMemoization compares a cold run against a fully memoized rerun.
func BenchmarkMemoization(b *testing.B) {
	ds := harness.WordCountData(4)
	app := apps.WordCount()
	run := func(memo *simmr.MemoCache) float64 {
		e := simmr.NewEngine(simmr.Config{
			Cluster: harness.PaperCluster(), Replication: 3,
			ByteScale: ds.ByteScale, RecordScale: ds.RecordScale,
			FailMapTask: -1, Memo: memo,
		})
		f := e.Ingest("in", ds.Splits)
		return e.Run(simmr.JobSpec{Name: app.Name, Mapper: app.Mapper,
			NewGroup: app.NewGroup, NewStream: app.NewStream, Merger: app.Merger,
			Reducers: 60, Mode: simmr.Pipelined, Costs: harness.CalibWordCount}, f).Completion
	}
	b.Run("cold", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			last = run(simmr.NewMemoCache())
		}
		b.ReportMetric(last, "vsec/job")
	})
	b.Run("warm", func(b *testing.B) {
		memo := simmr.NewMemoCache()
		run(memo) // prime
		var last float64
		for i := 0; i < b.N; i++ {
			last = run(memo)
		}
		b.ReportMetric(last, "vsec/job")
	})
}

// --- Worker-churn recovery (simulated prediction for the parity band) -------

// benchFaultPrediction reports the simulator's predicted recovery overhead
// for losing one of three workers at 40% of the job — in barrier mode, the
// prediction the real-engine parity test is compared against (harness.Parity,
// row "worker-kill").
func benchFaultPrediction(b *testing.B, mode simmr.Mode) {
	b.Helper()
	var est harness.KillEstimate
	for i := 0; i < b.N; i++ {
		est = harness.KillPrediction(harness.KillWorker, 1, harness.ParityWorkers, harness.ParityKillFrac, mode)
	}
	b.ReportMetric(est.Disturbed, "vsec/job")
	b.ReportMetric(est.Overhead*100, "overhead%")
}

func BenchmarkFaultPredicted3Workers_Barrier(b *testing.B) {
	benchFaultPrediction(b, simmr.Barrier)
}

func BenchmarkFaultPredicted3Workers_Pipelined(b *testing.B) {
	benchFaultPrediction(b, simmr.Pipelined)
}
