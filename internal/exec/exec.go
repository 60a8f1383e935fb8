// Package exec is the engine-agnostic execution plane of the real-
// concurrency engine: task descriptors (MapTask/ReduceTask), the canonical
// task bodies (RunMapTask/RunReduceTask) that run user Map/Reduce code
// against a pluggable shuffle transport, and a Scheduler that assigns tasks
// to Workers with per-worker slot limits and first-error propagation.
//
// internal/mr composes these pieces with a shuffle.Transport and a
// LocalWorker into the in-process engine; internal/mpexec composes the same
// task bodies and Scheduler with remote worker proxies into the
// multi-process engine. Job and Options live here so every engine shares
// one vocabulary (internal/mr aliases them for its public API).
package exec

import (
	"runtime"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/shuffle"
	"blmr/internal/store"
)

// Mode selects barrier or pipelined execution.
type Mode int

// Execution modes.
const (
	Barrier Mode = iota
	Pipelined
)

func (m Mode) String() string {
	if m == Barrier {
		return "barrier"
	}
	return "pipelined"
}

// Job is the user code of one MapReduce job, in both execution forms: the
// one definition all three engines run. apps.App is this type, mr.Job
// aliases it, and simmr.JobSpec embeds it, so an application built once
// runs anywhere without conversion.
type Job struct {
	// Name identifies the job in reports, journals and worker registries.
	Name string
	// Class is the paper's Reduce classification (Table 1).
	Class core.Class
	// Mapper runs once per input record; it is shared by all map tasks and
	// must be stateless.
	Mapper core.Mapper
	// NewGroup builds a barrier-mode reducer per reduce task.
	NewGroup func() core.GroupReducer
	// NewStream builds a barrier-less reducer per reduce task over the
	// task's partial-result store.
	NewStream func(st store.Store) core.StreamReducer
	// Merger combines same-key partials when a spill-merge store reunites
	// spilled runs. Required for store.SpillMerge and for SpillBytes in
	// pipelined mode.
	Merger store.Merger
	// Combiner, when non-nil, folds same-key intermediate records on the
	// map side before they are shuffled (Hadoop's combiner; the paper notes
	// the spill merge function "is often functionally the same"). In
	// run-discipline map tasks each published wave is combined before
	// sealing; in stream-discipline (in-process pipelined) tasks a hash
	// accumulator of up to 4096 distinct keys a partition folds records
	// before batching. It must be commutative and associative, and the
	// reduce function must tolerate pre-combined values: see WithCombiner.
	Combiner store.Merger
}

// WithCombiner returns j with its Merger installed as the map-side combiner
// when on is set and j is aggregation-class. Only those jobs combine safely
// (their reduce is the same fold), so every other class comes back
// unchanged: sort, for one, counts record arrivals, and folding duplicates
// map-side would silently drop them.
func (j Job) WithCombiner(on bool) Job {
	if on && j.Class == core.ClassAggregation {
		j.Combiner = j.Merger
	}
	return j
}

// Options tunes an execution.
type Options struct {
	// Mappers is the number of map tasks / concurrent map workers
	// (default NumCPU).
	Mappers int
	// Reducers is the number of reduce tasks (default NumCPU).
	Reducers int
	// Mode selects barrier or pipelined shuffle (default Barrier).
	Mode Mode
	// Transport selects the shuffle data plane (default shuffle.InProc).
	// The run exchange (shuffle.TCP) seals every map output wave to disk and
	// exchanges runs instead of batches.
	Transport shuffle.Kind
	// Store picks the partial-result strategy for pipelined mode. SpillBytes
	// is the one settable memory bound; without it a SpillMerge store spills
	// to in-memory runs past 64 MiB and the KV store caches 16 MiB.
	Store store.Kind
	// SpillBytes, when > 0, bounds each task's buffered intermediate data
	// (accounted with store.ApproxRecordBytes) and turns the shuffle into
	// an external one: run-discipline map tasks sort, encode and seal runs
	// to disk whenever their buffers cross the budget, and reducers stream
	// an external k-way merge over all sealed runs straight into the group
	// reducer — intermediate data never has to fit in RAM. Pipelined
	// reducers hold partial results in a disk-backed spill-merge store
	// with the same budget (Job.Merger required). Pipelined in-process
	// map tasks are not budgeted: they hold one batch per partition and
	// block on a full channel. 0 keeps everything in memory (on the
	// in-proc transport; the run-exchange transports always materialize
	// map output).
	SpillBytes int64
	// SpillDir is the directory for spill-run files. Empty means a fresh
	// temporary directory, removed when the run returns.
	SpillDir string
	// MergeFanIn caps how many runs the external merge opens at once
	// (default 64, Hadoop's io.sort.factor). When a partition has more
	// runs, intermediate merge passes fold the excess into merged runs
	// first, bounding merge memory (runs x about 128 KiB of read and block
	// buffers) and — over the TCP exchange — concurrently open fetch
	// connections.
	MergeFanIn int
	// Staged (multi-process engine only) restores the pre-overlap control
	// plane: the reduce wave is dispatched only after the entire map wave
	// completes. The default (false) dispatches reduce tasks at job start
	// and streams sealed-run routes to them as map tasks finish, so
	// reducers fetch and consume while later maps are still running —
	// breaking the stage barrier across processes exactly as the pipelined
	// in-process engine does. Barrier-mode output is byte-identical either
	// way (reducers still seal the full routing table before merging).
	// Ignored by the in-process engine, which always overlaps.
	Staged bool
	// Speculative (multi-process engine) enables backup attempts of
	// straggler map tasks: once three quarters of the map wave is done
	// (the simulator's default threshold), idle slots may run duplicate
	// attempts of still-running maps on other workers, and the first
	// completion wins (attempt IDs keep duplicate routing pushes
	// idempotent). Mirrors simmr.JobSpec.Speculative. Ignored by the
	// in-process engine.
	Speculative bool
	// Compression selects the sealed-run codec (default codec.None).
	// Every run the execution seals — spill waves, run-exchange segments,
	// intermediate merge runs, pipelined store spills — is sealed as
	// checksummed blocks in it: stored under codec.None, LZ-compressed
	// where that pays under codec.Block, whose sections travel compressed
	// over the TCP exchange, shrinking both spill I/O and fetch bytes.
	// codec.DeltaBlock additionally front-codes the sorted keys inside each
	// block, the big win for text-heavy keys (WordCount-class workloads).
	// Only the sealing side reads this field: every run names its codec in
	// its header. Decoded merge order is unchanged, so outputs stay
	// byte-identical across codecs.
	Compression codec.Compression
	// DecodeWorkers, QueueCap and BatchSize are read by no engine: every
	// fetched section decodes on the goroutine that consumes it, and the
	// pipelined batch shape is the constants shuffle.BatchSize and
	// shuffle.QueueCap. The fields stay only because the benchmark module
	// sets them; they go once the benchmark reads the engines' recorder
	// (ROADMAP item 1b).
	DecodeWorkers, QueueCap, BatchSize int
}

// Normalize fills defaulted fields in place.
func (o *Options) Normalize() {
	if o.Mappers <= 0 {
		o.Mappers = runtime.NumCPU()
	}
	if o.Reducers <= 0 {
		o.Reducers = runtime.NumCPU()
	}
	if o.MergeFanIn <= 1 {
		o.MergeFanIn = 64
	}
}

// StreamDiscipline reports whether map tasks stream batches (the in-process
// pipelined fast path) instead of publishing sorted waves.
func (o *Options) StreamDiscipline() bool {
	return o.Mode == Pipelined && o.Transport == shuffle.InProc
}

// SplitMaps carves input into one contiguous map task per concurrency slot
// (at most n tasks; fewer when input is small).
func SplitMaps(input []core.Record, n int) []MapTask {
	per := (len(input) + n - 1) / n
	if per == 0 {
		per = 1
	}
	var out []MapTask
	for lo := 0; lo < len(input); lo += per {
		hi := lo + per
		if hi > len(input) {
			hi = len(input)
		}
		out = append(out, MapTask{Index: len(out), Split: input[lo:hi]})
	}
	return out
}

// ReduceTasks returns one reduce task per partition.
func ReduceTasks(n int) []ReduceTask {
	out := make([]ReduceTask, n)
	for r := range out {
		out[r] = ReduceTask{Partition: r}
	}
	return out
}
