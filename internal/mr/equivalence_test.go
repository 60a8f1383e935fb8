package mr

// FuzzJob is the engine's one output-equivalence oracle (differential
// testing, McKeeman 1998): it decodes an app, a seeded input and an Options
// value from anywhere in the option space, runs the job, and holds the
// result to an in-memory, single-mapper barrier run of the same job and to
// what the map side must report, worked out from the input alone
// (mapModel). Barrier output must be byte-identical to the reference — the
// (map task, publish order) merge reproduces the in-memory stable sort
// whatever the transport, spill budget, codec or fan-in; pipelined output
// must match it as a multiset, in record count for the order-sensitive
// cross-key class, or within a rounding error for the single-reducer
// class's floating-point sums. The committed corpus, testdata/fuzz/FuzzJob, holds one
// seed per case of the per-axis equivalence tests this target replaced;
// every go test runs them, in parallel. Run under -race in CI: the corpus
// doubles as a race exercise of concurrent sealing, serving and fetching.
//
//	go test -run '^$' -fuzz FuzzJob -fuzztime 30s ./internal/mr/

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// fuzzApps are the seven classes' apps, each with the input FuzzJob builds
// for it from a seed and a record count (at most max, to keep a run small).
var fuzzApps = []struct {
	max   int
	build func(seed uint64, n int) (Job, []core.Record)
}{
	{4096, func(seed uint64, n int) (Job, []core.Record) {
		return apps.Grep("word0001"), workload.Text(seed, n, 800, 8)
	}},
	{8192, func(seed uint64, n int) (Job, []core.Record) {
		return apps.Sort(), workload.UniformKeys(seed, n, 1<<40)
	}},
	{4096, func(seed uint64, n int) (Job, []core.Record) {
		return apps.WordCount(), workload.Text(seed, n, 800, 8)
	}},
	{2048, func(seed uint64, n int) (Job, []core.Record) {
		d := workload.KNN(seed, n, 40, 1_000_000)
		return apps.KNN(10, d.Experimental), workload.KNNRecords(d, 0)
	}},
	{8192, func(seed uint64, n int) (Job, []core.Record) {
		return apps.LastFM(), workload.Listens(seed, n, 40, 300)
	}},
	{16, func(seed uint64, n int) (Job, []core.Record) {
		params := apps.DefaultBSParams()
		params.Iterations = 2000
		params.Samples = 30
		return apps.BlackScholes(params), workload.OptionSeeds(seed, n)
	}},
	{1024, func(seed uint64, n int) (Job, []core.Record) {
		return apps.GA(50), workload.Individuals(seed, n, 64)
	}},
}

// fuzzRef is one job's input and its reference run.
type fuzzRef struct {
	job   Job
	input []core.Record
	ref   *Result
	err   error
}

type fuzzRefKey struct {
	app      int
	seed     uint64
	n        int
	reducers int
}

// fuzzRefs memoises reference runs: the corpus shares a few jobs between
// many seeds. It is emptied past 64 entries so a long fuzzing run does not
// hold every input it ever made.
var (
	fuzzRefMu sync.Mutex
	fuzzRefs  = map[fuzzRefKey]func() fuzzRef{}
)

func reference(k fuzzRefKey) fuzzRef {
	fuzzRefMu.Lock()
	f, ok := fuzzRefs[k]
	if !ok {
		if len(fuzzRefs) >= 64 {
			clear(fuzzRefs)
		}
		f = sync.OnceValue(func() fuzzRef {
			job, input := fuzzApps[k.app].build(k.seed, k.n)
			ref, err := Run(job, input, Options{Mappers: 1, Reducers: k.reducers, Mode: Barrier})
			return fuzzRef{job, input, ref, err}
		})
		fuzzRefs[k] = f
	}
	fuzzRefMu.Unlock()
	return f()
}

// Bits of FuzzJob's strip argument: job fields the run goes without, so that
// Validate's refusals are reached too.
const (
	stripMapper = 1 << iota
	stripGroup
	stripStream
	stripMerger
)

func FuzzJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, app uint8, seed uint64, size uint16, mappers, reducers int8,
		mode, transport, storeKind, comp uint8, spill uint32, fanIn int8, combine bool, strip uint8) {
		t.Parallel()
		opts := Options{
			Mappers: min(int(mappers), 16), Reducers: min(int(reducers), 16),
			Mode: Mode(mode % 2), Transport: shuffle.Kind(transport % 2),
			Store: store.Kind(storeKind % 3), Compression: codec.Compression(comp % 3),
			SpillBytes: int64(spill), MergeFanIn: int(fanIn),
		}
		if opts.SpillBytes > 0 {
			opts.SpillBytes = max(opts.SpillBytes, 1<<10) // a wave holds more than a few records
		}
		checkJob(t, int(app)%len(fuzzApps), seed, int(size), opts, combine, strip)
	})
}

// checkJob runs app a on its input of seed and size records (clamped to the
// app's max) with opts, a combiner if combine is set and the job fields strip
// names removed, and holds the run to its reference: Validate's refusals must
// be errors, every accepted run must pass checkRun.
func checkJob(t *testing.T, a int, seed uint64, size int, opts Options, combine bool, strip uint8) {
	t.Helper()
	opts.SpillDir = t.TempDir()
	norm := opts
	norm.Normalize()
	rf := reference(fuzzRefKey{a, seed, size % (fuzzApps[a].max + 1), norm.Reducers})
	if rf.err != nil {
		t.Fatalf("reference run: %v", rf.err)
	}
	job := rf.job
	if strip&stripMapper != 0 {
		job.Mapper = nil
	}
	if strip&stripGroup != 0 {
		job.NewGroup = nil
	}
	if strip&stripStream != 0 {
		job.NewStream = nil
	}
	if strip&stripMerger != 0 {
		job.Merger = nil
	}
	job = job.WithCombiner(combine)

	res, err := Run(job, rf.input, opts)
	if verr := Validate(job, norm); verr != nil {
		if err == nil {
			t.Fatalf("Run accepted a job Validate refuses (%v)", verr)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, job, rf, norm, res)
}

// sweepAxis runs every app on an input of at most size records once per
// value of one option axis, each run held to its reference by checkJob: the
// corpus's shapes of the axis, at one more input and task count.
func sweepAxis(t *testing.T, seed uint64, size int, axis []Options) {
	for a := range fuzzApps {
		for i, opts := range axis {
			t.Run(fmt.Sprintf("app%d-axis%d", a, i), func(t *testing.T) {
				t.Parallel()
				checkJob(t, a, seed, min(size, fuzzApps[a].max), opts, false, 0)
			})
		}
	}
}

// TestTransportEquivalence: both transports in both modes, and barrier runs
// under a map-side spill budget.
func TestTransportEquivalence(t *testing.T) {
	var axis []Options
	for _, tr := range []shuffle.Kind{shuffle.InProc, shuffle.TCP} {
		axis = append(axis, Options{Mappers: 3, Reducers: 2, Mode: Barrier, Transport: tr},
			Options{Mappers: 3, Reducers: 2, Mode: Pipelined, Transport: tr},
			Options{Mappers: 3, Reducers: 2, Mode: Barrier, Transport: tr, SpillBytes: 16 << 10})
	}
	sweepAxis(t, 101, 300, axis)
}

// TestSpillEquivalence: map-side spill budgets in barrier mode, store spill
// budgets in pipelined mode.
func TestSpillEquivalence(t *testing.T) {
	var axis []Options
	for _, spill := range []int64{4 << 10, 16 << 10} {
		axis = append(axis, Options{Mappers: 2, Reducers: 3, Mode: Barrier, SpillBytes: spill},
			Options{Mappers: 2, Reducers: 3, Mode: Pipelined, SpillBytes: spill})
	}
	sweepAxis(t, 102, 300, axis)
}

// TestCompressionEquivalence: each codec over the run exchange, in both modes.
func TestCompressionEquivalence(t *testing.T) {
	var axis []Options
	for _, comp := range []codec.Compression{codec.None, codec.Block, codec.DeltaBlock} {
		axis = append(axis, Options{Mappers: 2, Reducers: 2, Mode: Barrier, Transport: shuffle.TCP, Compression: comp},
			Options{Mappers: 2, Reducers: 2, Mode: Pipelined, Transport: shuffle.TCP, Compression: comp})
	}
	sweepAxis(t, 103, 300, axis)
}

// TestBatchedPipelinedEquivalence: in-proc pipelined runs with one map task
// and one reducer, so the partition spans more shuffle.BatchSize batches
// than a shuffle.QueueCap queue holds.
func TestBatchedPipelinedEquivalence(t *testing.T) {
	sweepAxis(t, 104, 1<<16, []Options{{Mappers: 1, Reducers: 1, Mode: Pipelined}})
}

// checkRun holds one run with normalised options opts to its reference and
// to the map side's model.
func checkRun(t *testing.T, job Job, rf fuzzRef, opts Options, res *Result) {
	t.Helper()
	m := modelMaps(job, rf.input, opts)
	switch {
	case opts.Mode == Barrier:
		requireExact(t, "barrier vs reference", rf.ref.Output, res.Output)
	case job.Class == core.ClassCrossKey:
		if len(res.Output) != len(rf.ref.Output) {
			t.Fatalf("pipelined: %d records vs the reference's %d", len(res.Output), len(rf.ref.Output))
		}
	case job.Class == core.ClassSingleReducer:
		requireClose(t, rf.ref.Output, res.Output)
	default:
		requireSame(t, "pipelined vs reference", rf.ref.Output, res.Output)
	}
	if res.ShuffleRecords != m.shuffled {
		t.Fatalf("shuffled %d records, want %d (the mapper emitted %d; combiner %v)",
			res.ShuffleRecords, m.shuffled, rf.ref.ShuffleRecords, job.Combiner != nil)
	}
	if job.Combiner == nil && m.shuffled != rf.ref.ShuffleRecords {
		t.Fatalf("the model shuffles %d records, the reference %d", m.shuffled, rf.ref.ShuffleRecords)
	}

	// Spills counts map waves sealed at a budget crossing, then pipelined
	// spill-merge store runs.
	storeSpills := res.Spills - m.sealed
	if storeSpills < 0 || opts.Mode == Barrier && storeSpills != 0 {
		t.Fatalf("%d spills, want %d sealed map waves plus any pipelined store's runs", res.Spills, m.sealed)
	}
	if opts.Mode == Pipelined && opts.SpillBytes > 0 && opts.Store.Bounded(opts.SpillBytes) == store.SpillMerge &&
		res.PeakPartialBytes >= opts.SpillBytes && storeSpills == 0 {
		t.Fatalf("partials peaked at %d bytes against a %d-byte budget, and the store never spilled",
			res.PeakPartialBytes, opts.SpillBytes)
	}
	passes := 0
	if opts.Mode == Barrier {
		for _, runs := range m.runs {
			if runs > opts.MergeFanIn { // a pass folds MergeFanIn runs into one
				passes += (runs - 2) / (opts.MergeFanIn - 1)
			}
		}
	}
	if res.MergePasses != passes {
		t.Fatalf("%d merge passes at fan-in %d over %v runs a partition, want %d",
			res.MergePasses, opts.MergeFanIn, m.runs, passes)
	}
	if opts.Transport == shuffle.TCP && res.ShuffleRecords > 0 && res.SpilledBytes == 0 {
		t.Fatal("the run exchange sealed nothing")
	}
	sections := res.MergePasses + storeSpills
	for _, runs := range m.runs {
		sections += runs
	}
	checkCompressionAccounting(t, "run", res, opts.Compression, opts.Transport, sections)
}

// requireClose holds single-reducer output, floating-point sums over the
// records in arrival order, to the reference within a relative 1e-9: a
// pipelined run's order can move a printed last digit.
func requireClose(t *testing.T, want, got []core.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pipelined: %d records vs the reference's %d", len(got), len(want))
	}
	for i := range want {
		w, errw := strconv.ParseFloat(want[i].Value, 64)
		g, errg := strconv.ParseFloat(got[i].Value, 64)
		if got[i].Key != want[i].Key || errw != nil || errg != nil || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
			t.Fatalf("pipelined record %d: %v vs the reference's %v", i, got[i], want[i])
		}
	}
}

// mapModel is what a run's map side must report, worked out from the input
// by replaying the map bodies' buffering rules (exec.runMapRuns,
// exec.runMapStream) over each map task's split.
type mapModel struct {
	shuffled int64 // records handed to the shuffle, after combining
	sealed   int   // waves sealed at a SpillBytes crossing
	runs     []int // per partition: the waves (stream: flushes) holding a record of it
}

// streamCombineKeys is how many distinct keys a stream-discipline combine
// buffer holds before it drains (exec's combineKeys).
const streamCombineKeys = 4096

func modelMaps(job Job, input []core.Record, opts Options) mapModel {
	m := mapModel{runs: make([]int, opts.Reducers)}
	for _, task := range exec.SplitMaps(input, opts.Mappers) {
		keys := make([]map[string]bool, opts.Reducers) // a partition's buffered keys
		recs := make([]int64, opts.Reducers)           // and records
		flush := func(p int) {
			if recs[p] == 0 {
				return
			}
			m.runs[p]++
			if job.Combiner != nil {
				m.shuffled += int64(len(keys[p]))
			} else {
				m.shuffled += recs[p]
			}
			clear(keys[p])
			recs[p] = 0
		}
		var buffered int64
		emit := core.EmitterFunc(func(k, v string) {
			p := core.Partition(k, opts.Reducers)
			if keys[p] == nil {
				keys[p] = map[string]bool{}
			}
			keys[p][k] = true
			recs[p]++
			switch {
			case opts.StreamDiscipline():
				if job.Combiner != nil && len(keys[p]) >= streamCombineKeys {
					flush(p)
				}
			case opts.SpillBytes > 0:
				buffered += store.ApproxRecordBytes(k, v)
				if buffered >= opts.SpillBytes {
					for p := range keys {
						flush(p)
					}
					m.sealed++
					buffered = 0
				}
			}
		})
		for _, r := range task.Split {
			job.Mapper.Map(r.Key, r.Value, emit)
		}
		for p := range keys {
			flush(p)
		}
	}
	return m
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
