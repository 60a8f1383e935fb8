package simmr

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/store"
	"blmr/internal/workload"
)

func TestCombinerPreservesOutput(t *testing.T) {
	input := workload.Text(21, 3000, 400, 8)
	run := func(withCombiner bool) *Result {
		e := NewEngine(testConfig())
		f := e.Ingest("in", workload.SplitEvenly(input, 8))
		job := jobFor(apps.WordCount(), Pipelined, 3)
		if withCombiner {
			job.Combiner = store.SumMerger
		}
		return e.Run(job, f)
	}
	plain := run(false)
	combined := run(true)
	requireSameOutput(t, "combiner", plain.Output, combined.Output)
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Fatalf("combiner should shrink shuffle: %d vs %d bytes",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
	// With a Zipf word distribution, map-side combining should cut the
	// shuffle volume substantially.
	if combined.ShuffleBytes > plain.ShuffleBytes*3/4 {
		t.Fatalf("combiner only saved %d of %d bytes", plain.ShuffleBytes-combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

func TestCombinerWorksInBarrierMode(t *testing.T) {
	input := workload.Text(22, 2000, 300, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 6))
	job := jobFor(apps.WordCount(), Barrier, 3)
	job.Combiner = store.SumMerger
	res := e.Run(job, f)

	e2 := NewEngine(testConfig())
	f2 := e2.Ingest("in", workload.SplitEvenly(input, 6))
	ref := e2.Run(jobFor(apps.WordCount(), Barrier, 3), f2)
	requireSameOutput(t, "combiner-barrier", ref.Output, res.Output)
}

func TestMemoizationSkipsRepeatMaps(t *testing.T) {
	input := workload.Text(23, 3000, 400, 8)
	memo := NewMemoCache()
	run := func() *Result {
		cfg := testConfig()
		cfg.Memo = memo
		e := NewEngine(cfg)
		f := e.Ingest("in", workload.SplitEvenly(input, 8))
		return e.Run(jobFor(apps.WordCount(), Pipelined, 3), f)
	}
	cold := run()
	if cold.MemoHits != 0 {
		t.Fatalf("cold run hit the cache %d times", cold.MemoHits)
	}
	if memo.Len() != 8 {
		t.Fatalf("cache holds %d entries, want 8", memo.Len())
	}
	warm := run()
	if warm.MemoHits != 8 {
		t.Fatalf("warm run hits = %d, want 8", warm.MemoHits)
	}
	requireSameOutput(t, "memo", cold.Output, warm.Output)
	if warm.Completion >= cold.Completion {
		t.Fatalf("memoized run (%.2fs) should beat cold run (%.2fs)",
			warm.Completion, cold.Completion)
	}
}

func TestMemoizationInvalidatedByChangedInput(t *testing.T) {
	memo := NewMemoCache()
	run := func(seed uint64) *Result {
		cfg := testConfig()
		cfg.Memo = memo
		e := NewEngine(cfg)
		input := workload.Text(seed, 1000, 200, 8)
		f := e.Ingest("in", workload.SplitEvenly(input, 4))
		return e.Run(jobFor(apps.WordCount(), Pipelined, 2), f)
	}
	run(31)
	changed := run(32) // different corpus: every chunk differs
	if changed.MemoHits != 0 {
		t.Fatalf("changed input must not hit the cache, got %d hits", changed.MemoHits)
	}
}

func TestMemoizationKeyedByReducerCount(t *testing.T) {
	memo := NewMemoCache()
	input := workload.Text(33, 1000, 200, 8)
	run := func(reducers int) *Result {
		cfg := testConfig()
		cfg.Memo = memo
		e := NewEngine(cfg)
		f := e.Ingest("in", workload.SplitEvenly(input, 4))
		return e.Run(jobFor(apps.WordCount(), Pipelined, reducers), f)
	}
	run(2)
	other := run(3) // different partitioning: cached partitions are invalid
	if other.MemoHits != 0 {
		t.Fatalf("different reducer count must not reuse partitions, got %d hits", other.MemoHits)
	}
	if other.Failed {
		t.Fatal(other.FailReason)
	}
}

func TestMemoizationWithCombiner(t *testing.T) {
	input := workload.Text(34, 2000, 300, 8)
	memo := NewMemoCache()
	run := func() *Result {
		cfg := testConfig()
		cfg.Memo = memo
		e := NewEngine(cfg)
		f := e.Ingest("in", workload.SplitEvenly(input, 6))
		job := jobFor(apps.WordCount(), Pipelined, 3)
		job.Combiner = store.SumMerger
		return e.Run(job, f)
	}
	cold := run()
	warm := run()
	requireSameOutput(t, "memo+combiner", cold.Output, warm.Output)
	if warm.MemoHits != 6 {
		t.Fatalf("hits = %d", warm.MemoHits)
	}
	if warm.ShuffleBytes != cold.ShuffleBytes {
		t.Fatalf("cached shuffle bytes differ: %d vs %d", warm.ShuffleBytes, cold.ShuffleBytes)
	}
}

func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	input := workload.Text(41, 4000, 400, 8)
	run := func(speculative bool) *Result {
		cfg := testConfig()
		cfg.ByteScale = 500 // stretch virtual time so stage durations matter
		cfg.RecordScale = 500
		e := NewEngine(cfg)
		e.C.Nodes[1].Speed = 0.15 // severe straggler
		f := e.Ingest("in", workload.SplitEvenly(input, 8))
		job := jobFor(apps.WordCount(), Pipelined, 3)
		job.Speculative = speculative
		return e.Run(job, f)
	}
	plain := run(false)
	spec := run(true)
	requireSameOutput(t, "speculation", plain.Output, spec.Output)
	if spec.BackupsLaunched == 0 {
		t.Fatal("no backups launched despite a straggler")
	}
	if spec.BackupsWon == 0 {
		t.Fatal("backups should beat a 0.15x straggler")
	}
	// Speculation rescues the map phase (this workload is reduce-bound, so
	// overall completion may be gated elsewhere — the claim under test is
	// the straggler mitigation itself).
	if spec.MapOutputsReady >= plain.MapOutputsReady {
		t.Fatalf("speculation should make map outputs available earlier: %.1fs vs %.1fs",
			spec.MapOutputsReady, plain.MapOutputsReady)
	}
	if spec.Completion > plain.Completion {
		t.Fatalf("speculation must never slow the job: %.1fs vs %.1fs",
			spec.Completion, plain.Completion)
	}
}

func TestSpeculativeExecutionHarmlessWhenHomogeneous(t *testing.T) {
	input := workload.Text(42, 2000, 300, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 6))
	job := jobFor(apps.WordCount(), Pipelined, 3)
	job.Speculative = true
	res := e.Run(job, f)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	// Backups may launch for the tail wave, but they must never corrupt
	// output.
	e2 := NewEngine(testConfig())
	f2 := e2.Ingest("in", workload.SplitEvenly(input, 6))
	ref := e2.Run(jobFor(apps.WordCount(), Pipelined, 3), f2)
	requireSameOutput(t, "speculation-homogeneous", ref.Output, res.Output)
}

func TestSpeculativeBarrierMode(t *testing.T) {
	input := workload.Text(43, 2000, 300, 8)
	e := NewEngine(testConfig())
	e.C.Nodes[0].Speed = 0.2
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), Barrier, 3)
	job.Speculative = true
	res := e.Run(job, f)
	e2 := NewEngine(testConfig())
	e2.C.Nodes[0].Speed = 0.2
	f2 := e2.Ingest("in", workload.SplitEvenly(input, 8))
	ref := e2.Run(jobFor(apps.WordCount(), Barrier, 3), f2)
	requireSameOutput(t, "speculation-barrier", ref.Output, res.Output)
}

func TestSnapshotsTrackProgress(t *testing.T) {
	input := workload.Text(44, 4000, 600, 8)
	cfg := testConfig()
	cfg.ByteScale = 500
	cfg.RecordScale = 500
	e := NewEngine(cfg)
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), Pipelined, 2)
	job.SnapshotPeriod = 2
	res := e.Run(job, f)
	if len(res.Snapshots) < 3 {
		t.Fatalf("only %d snapshots", len(res.Snapshots))
	}
	perReducer := map[int][]Snapshot{}
	for _, s := range res.Snapshots {
		perReducer[s.Reducer] = append(perReducer[s.Reducer], s)
	}
	for r, snaps := range perReducer {
		for i := 1; i < len(snaps); i++ {
			if snaps[i].T <= snaps[i-1].T {
				t.Fatalf("reducer %d snapshot times not increasing", r)
			}
			if snaps[i].Consumed < snaps[i-1].Consumed || snaps[i].Keys < snaps[i-1].Keys {
				t.Fatalf("reducer %d progress went backwards", r)
			}
		}
		last := snaps[len(snaps)-1]
		if last.Consumed == 0 || last.Keys == 0 || last.MemVirt == 0 {
			t.Fatalf("reducer %d final snapshot empty: %+v", r, last)
		}
	}
}

func TestSnapshotsOffByDefault(t *testing.T) {
	input := workload.Text(45, 1000, 200, 8)
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(input, 4))
	res := e.Run(jobFor(apps.WordCount(), Pipelined, 2), f)
	if len(res.Snapshots) != 0 {
		t.Fatalf("snapshots recorded without opting in: %d", len(res.Snapshots))
	}
}
