package simmr

import (
	"sort"
	"strconv"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/metrics"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// testConfig is a small fast cluster for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 4
	cfg.Cluster.MapSlots = 2
	cfg.Cluster.ReduceSlots = 2
	cfg.Cluster.SpeedSpread = 0
	cfg.Cluster.TransferChunkBytes = 64 << 10
	cfg.Replication = 2
	return cfg
}

// jobFor is app's JobSpec in mode over reducers reduce tasks.
func jobFor(app apps.App, mode Mode, reducers int) JobSpec {
	return JobSpec{Job: app, Reducers: reducers, Mode: mode}
}

// runBoth executes the same app/input in barrier and pipelined modes on
// fresh engines and returns both results.
func runBoth(t *testing.T, app apps.App, input []core.Record, splits, reducers int, mut func(*JobSpec)) (b, s *Result) {
	t.Helper()
	run := func(mode Mode) *Result {
		e := NewEngine(testConfig())
		f := e.Ingest("in", workload.SplitEvenly(input, splits))
		job := jobFor(app, mode, reducers)
		if mut != nil {
			mut(&job)
		}
		res := e.Run(job, f)
		if res.Failed {
			t.Fatalf("%s/%v failed: %s", app.Name, mode, res.FailReason)
		}
		return res
	}
	return run(Barrier), run(Pipelined)
}

func sortRecs(recs []core.Record) []core.Record {
	out := append([]core.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func requireSameOutput(t *testing.T, name string, a, b []core.Record) {
	t.Helper()
	sa, sb := sortRecs(a), sortRecs(b)
	if len(sa) != len(sb) {
		t.Fatalf("%s: outputs differ in size: %d vs %d", name, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: output record %d: %v vs %v", name, i, sa[i], sb[i])
		}
	}
}

func TestWordCountModesAgree(t *testing.T) {
	input := workload.Text(1, 3000, 800, 8)
	b, s := runBoth(t, apps.WordCount(), input, 8, 4, nil)
	requireSameOutput(t, "wordcount", b.Output, s.Output)
	if len(b.Output) == 0 {
		t.Fatal("empty output")
	}
	// Every word counted exactly once across reducers.
	total := 0
	for _, r := range b.Output {
		n, _ := strconv.Atoi(r.Value)
		total += n
	}
	if total != 3000*8 {
		t.Fatalf("total = %d, want %d", total, 3000*8)
	}
}

func TestPipelinedFinishesAfterMapsNoEarlierThanBarrierMapDone(t *testing.T) {
	input := workload.Text(2, 4000, 500, 8)
	b, s := runBoth(t, apps.WordCount(), input, 12, 4, nil)
	if s.Completion >= b.Completion {
		t.Fatalf("pipelined (%.1fs) should beat barrier (%.1fs) on wordcount", s.Completion, b.Completion)
	}
	if s.Completion < s.MapDone {
		t.Fatalf("job cannot finish before maps: %.1f < %.1f", s.Completion, s.MapDone)
	}
}

func TestSortModesAgree(t *testing.T) {
	input := workload.UniformKeys(3, 4000, 1_000_000)
	b, s := runBoth(t, apps.Sort(), input, 8, 4, nil)
	requireSameOutput(t, "sort", b.Output, s.Output)
	if len(b.Output) != len(input) {
		t.Fatalf("sort output %d, want %d", len(b.Output), len(input))
	}
}

func TestKNNModesAgree(t *testing.T) {
	d := workload.KNN(4, 1500, 40, 1_000_000)
	app := apps.KNN(10, d.Experimental)
	b, s := runBoth(t, app, workload.KNNRecords(d, 0), 6, 3, nil)
	requireSameOutput(t, "knn", b.Output, s.Output)
	if len(b.Output) != 40*10 {
		t.Fatalf("knn output %d, want 400", len(b.Output))
	}
}

func TestLastFMModesAgree(t *testing.T) {
	input := workload.Listens(5, 6000, 50, 300)
	b, s := runBoth(t, apps.LastFM(), input, 8, 4, nil)
	requireSameOutput(t, "lastfm", b.Output, s.Output)
}

func TestGAOutputCountsMatch(t *testing.T) {
	input := workload.Individuals(6, 400, 64)
	b, s := runBoth(t, apps.GA(40), input, 8, 4, nil)
	if len(b.Output) != len(input) || len(s.Output) != len(input) {
		t.Fatalf("GA offspring: barrier=%d pipelined=%d, want %d", len(b.Output), len(s.Output), len(input))
	}
}

func TestBlackScholesModesAgree(t *testing.T) {
	p := apps.DefaultBSParams()
	p.Iterations = 2000
	p.Samples = 50
	input := workload.OptionSeeds(7, 12)
	b, s := runBoth(t, apps.BlackScholes(p), input, 12, 1, nil)
	requireSameOutput(t, "blackscholes", b.Output, s.Output)
	if len(b.Output) != 3 {
		t.Fatalf("expected count/mean/stddev, got %v", b.Output)
	}
}

func TestGrepIdentityModesAgree(t *testing.T) {
	input := workload.Text(8, 2000, 300, 6)
	b, s := runBoth(t, apps.Grep("word000"), input, 6, 3, nil)
	requireSameOutput(t, "grep", b.Output, s.Output)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	input := workload.Text(9, 1500, 400, 8)
	run := func() *Result {
		e := NewEngine(testConfig())
		f := e.Ingest("in", workload.SplitEvenly(input, 6))
		return e.Run(jobFor(apps.WordCount(), Pipelined, 3), f)
	}
	r1, r2 := run(), run()
	if r1.Completion != r2.Completion {
		t.Fatalf("completion differs: %v vs %v", r1.Completion, r2.Completion)
	}
	requireSameOutput(t, "determinism", r1.Output, r2.Output)
}

func TestTimelineStagesRecorded(t *testing.T) {
	input := workload.Text(10, 2000, 400, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 6))
	res := e.Run(jobFor(apps.WordCount(), Barrier, 3), f)
	for _, st := range []metrics.Stage{metrics.StageMap, metrics.StageShuffle, metrics.StageSort, metrics.StageReduce, metrics.StageOutput} {
		if _, _, ok := res.Metrics.StageBounds(st); !ok {
			t.Fatalf("stage %s never recorded", st)
		}
	}
	// In barrier mode, the grouped reduce pass cannot start before the
	// last map finishes.
	mapFirst, mapLast, _ := res.Metrics.StageBounds(metrics.StageMap)
	redFirst, _, _ := res.Metrics.StageBounds(metrics.StageReduce)
	if redFirst < mapLast {
		t.Fatalf("barrier violated: reduce at %.1f before last map %.1f", redFirst, mapLast)
	}
	if mapFirst != 0 {
		t.Fatalf("first map should start at 0, got %v", mapFirst)
	}
}

func TestPipelinedReduceOverlapsMaps(t *testing.T) {
	input := workload.Text(11, 4000, 400, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 16)) // multiple map waves
	res := e.Run(jobFor(apps.WordCount(), Pipelined, 3), f)
	_, mapLast, _ := res.Metrics.StageBounds(metrics.StageMap)
	redFirst, _, _ := res.Metrics.StageBounds(metrics.StageReduce)
	if redFirst >= mapLast {
		t.Fatalf("no pipelining: reduce began %.1f, after last map %.1f", redFirst, mapLast)
	}
}

func TestOOMKillsJob(t *testing.T) {
	input := workload.Text(12, 4000, 3000, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), Pipelined, 2)
	job.Store = store.InMemory
	job.HeapBudget = 64 << 10 // absurdly small: must OOM
	res := e.Run(job, f)
	if !res.Failed {
		t.Fatal("expected OOM failure")
	}
	if res.FailReason == "" || res.Completion <= 0 {
		t.Fatalf("bad failure report: %+v", res)
	}
}

func TestSpillMergeStaysUnderBudgetAndSucceeds(t *testing.T) {
	input := workload.Text(13, 4000, 3000, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), Pipelined, 2)
	job.Store = store.SpillMerge
	job.SpillThreshold = 48 << 10
	job.HeapBudget = 64 << 10
	res := e.Run(job, f)
	if res.Failed {
		t.Fatalf("spill-merge job failed: %s", res.FailReason)
	}
	if res.Spills == 0 {
		t.Fatal("expected spills under this threshold")
	}
	// Output must match an in-memory run with ample budget.
	e2 := NewEngine(testConfig())
	f2 := e2.Ingest("in", workload.SplitEvenly(input, 8))
	ref := e2.Run(jobFor(apps.WordCount(), Pipelined, 2), f2)
	requireSameOutput(t, "spill-vs-mem", ref.Output, res.Output)
}

func TestKVStoreModeWorksAndIsSlower(t *testing.T) {
	input := workload.Text(14, 3000, 1500, 8)
	mkJob := func(kind store.Kind) *Result {
		e := NewEngine(testConfig())
		f := e.Ingest("in", workload.SplitEvenly(input, 8))
		job := jobFor(apps.WordCount(), Pipelined, 2)
		job.Store = kind
		return e.Run(job, f)
	}
	mem := mkJob(store.InMemory)
	kv := mkJob(store.KV)
	if kv.Failed || mem.Failed {
		t.Fatal("unexpected failure")
	}
	requireSameOutput(t, "kv-vs-mem", mem.Output, kv.Output)
	if kv.Completion <= mem.Completion {
		t.Fatalf("KV store (%.1fs) should be slower than in-memory (%.1fs)", kv.Completion, mem.Completion)
	}
}

func TestMemSamplesCollected(t *testing.T) {
	input := workload.Text(16, 3000, 2000, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 6))
	res := e.Run(jobFor(apps.WordCount(), Pipelined, 2), f)
	if res.PeakMemVirt <= 0 {
		t.Fatal("no peak memory recorded")
	}
	ids := res.Metrics.SortedReducerIDs()
	if len(ids) != 2 {
		t.Fatalf("mem series for %d reducers, want 2", len(ids))
	}
	series := res.Metrics.MemSeries(ids[0])
	if len(series) < 2 {
		t.Fatalf("too few samples: %d", len(series))
	}
	// Memory is non-decreasing for an aggregation until emit.
	for i := 1; i < len(series)-1; i++ {
		if series[i].Bytes < series[i-1].Bytes {
			t.Fatalf("aggregation memory shrank mid-run at sample %d", i)
		}
	}
}

func TestMoreReducersSpreadLoad(t *testing.T) {
	input := workload.Text(17, 4000, 800, 8)
	e1 := NewEngine(testConfig())
	r1 := e1.Run(jobFor(apps.WordCount(), Pipelined, 1), e1.Ingest("in", workload.SplitEvenly(input, 8)))
	e8 := NewEngine(testConfig())
	r8 := e8.Run(jobFor(apps.WordCount(), Pipelined, 8), e8.Ingest("in", workload.SplitEvenly(input, 8)))
	if r8.Completion >= r1.Completion {
		t.Fatalf("8 reducers (%.1fs) should beat 1 reducer (%.1fs)", r8.Completion, r1.Completion)
	}
	requireSameOutput(t, "reducer-count", r1.Output, r8.Output)
}

func TestSingleChunkSingleReducer(t *testing.T) {
	input := workload.Text(18, 100, 50, 5)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 1))
	res := e.Run(jobFor(apps.WordCount(), Pipelined, 1), f)
	if res.Failed || len(res.Output) == 0 {
		t.Fatalf("tiny job failed: %+v", res.Failed)
	}
}

func TestEmptyInput(t *testing.T) {
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(nil, 3))
	res := e.Run(jobFor(apps.WordCount(), Pipelined, 2), f)
	if res.Failed {
		t.Fatalf("empty job failed: %s", res.FailReason)
	}
	if len(res.Output) != 0 {
		t.Fatalf("empty input produced %d records", len(res.Output))
	}
}
