// Package mr is the real-concurrency MapReduce engine — the wall-clock
// counterpart of the simulated engine. Since the exec/shuffle split it is a
// thin composition of three layers: the execution plane (internal/exec:
// task descriptors, task bodies, a scheduler with per-worker slots and
// first-error propagation), one of two shuffle transports (internal/shuffle:
// InProc, batched channels and shared-memory runs; or TCP, every map output
// wave sealed as a run file and fetched from a loopback run-server), and
// this package's Run, which wires a LocalWorker to a transport and assembles
// the Result. The multi-process engine (internal/mpexec) composes the same
// layers with remote workers instead.
package mr

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/store"
)

// Mode, Job and Options are the execution plane's vocabulary, aliased so
// this package remains the engine's front door.
type (
	// Mode selects barrier or pipelined execution.
	Mode = exec.Mode
	// Job bundles the user code for one MapReduce job.
	Job = exec.Job
	// Options tunes an execution.
	Options = exec.Options
)

// Execution modes.
const (
	Barrier   = exec.Barrier
	Pipelined = exec.Pipelined
)

// Result reports one execution.
type Result struct {
	// Output is the concatenation of reducer outputs in reducer order.
	// Within a reducer, barrier output is key-sorted; pipelined output
	// order follows each reducer's Finish.
	Output []core.Record
	// MapWall is the wall-clock duration of the map phase (in pipelined
	// mode reduce work overlaps it).
	MapWall time.Duration
	// Wall is the total wall-clock duration.
	Wall time.Duration
	// Spills counts spill runs: sealed map-side waves (SpillBytes
	// crossings) plus pipelined spill-merge store runs.
	Spills int
	// ShuffleRecords is the number of intermediate records shuffled from
	// mappers to reducers, after map-side combining — the wall-clock
	// engine's counterpart of simmr.Result.ShuffleBytes.
	ShuffleRecords int64
	// SpilledBytes is the total encoded bytes sealed into run files (post-
	// compression — the bytes that actually hit disk). On the in-proc
	// transport that is spill overflow only; the run-exchange transports
	// materialize every map output wave, so it covers the whole shuffle
	// volume.
	SpilledBytes int64
	// RawSpillBytes is the standard (pre-compression) encoded size of the
	// sealed runs behind SpilledBytes; RawSpillBytes/CompressedSpillBytes
	// is the job's spill compression ratio (just under 1 under codec.None,
	// whose runs add only block framing to the records).
	RawSpillBytes int64
	// CompressedSpillBytes equals SpilledBytes, named for the ratio pair.
	CompressedSpillBytes int64
	// FetchBytes is the total wire bytes reduce tasks fetched from
	// run-servers (TCP exchange; compressed sections travel — and count —
	// compressed). 0 for transports that read runs locally.
	FetchBytes int64
	// FetchDials counts run-server connections dialed by the pooled fetch
	// plane (TCP exchange). The pool keeps one multiplexed connection per
	// peer and reuses it across sections and tasks, so this stays near
	// peers × concurrent fetches — against one dial per fetched section
	// before pooling. 0 for transports that read runs locally.
	FetchDials int64
	// ServerOpens counts os.Open calls the run-server's serving path paid
	// (TCP exchange). The refcounted handle cache keeps this near the
	// distinct sealed-file count — against one open per served section
	// before caching, i.e. sections ≫ opens. 0 for transports that read
	// runs locally.
	ServerOpens int64
	// PeakPartialBytes is the largest partial-result store footprint
	// (store.Store.ApproxBytes) observed across pipelined reducers,
	// sampled once per consumed batch — the number to compare against
	// Options.SpillBytes to see the memory bound holding.
	PeakPartialBytes int64
	// MergePasses counts intermediate merge passes forced by
	// Options.MergeFanIn across reduce tasks (0 = every partition fit in
	// one merge wave).
	MergePasses int
	// MapRetries / ReduceRetries count task re-executions after worker
	// loss (multi-process engine; 0 in-process). A churn-free run reports
	// zeros.
	MapRetries    int
	ReduceRetries int
	// BackupsLaunched / BackupsWon count speculative map clones dispatched
	// and clones whose attempt completed first (Options.Speculative).
	BackupsLaunched int
	BackupsWon      int
	// ReattachedMaps counts map tasks a restarted coordinator recovered by
	// re-attaching a returning worker's surviving sealed runs instead of
	// re-executing them (multi-process engine resume; 0 everywhere else).
	ReattachedMaps int
}

// Run executes job over input and returns the result. The input slice is
// not modified.
func Run(job Job, input []core.Record, opts Options) (*Result, error) {
	opts.Normalize()
	if err := Validate(job, opts); err != nil {
		return nil, err
	}
	spillDir, err := OpenSpillDir(opts)
	if err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", job.Name, err)
	}
	if spillDir != nil {
		defer spillDir.Close()
	}

	start := time.Now()
	maps := exec.SplitMaps(input, opts.Mappers)
	tr, err := shuffle.New(opts.Transport, shuffle.Config{
		Maps: len(maps), Parts: opts.Reducers,
		Dir: spillDir, MergeFanIn: opts.MergeFanIn,
	})
	if err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", job.Name, err)
	}
	defer tr.Close()

	sched := exec.Scheduler{
		Workers: []exec.Assignment{{
			W:        &exec.LocalWorker{Job: job, Opts: opts, Transport: tr, Scratch: spillDir},
			MapSlots: opts.Mappers,
			// Every partition must be schedulable concurrently on the
			// in-proc stream transport (see the scheduler's package note);
			// in-process reduce tasks are goroutines, so grant all slots.
			ReduceSlots: opts.Reducers,
		}},
		OnFail: tr.Fail,
	}
	sum, err := sched.Run(maps, exec.ReduceTasks(opts.Reducers))
	if err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", job.Name, err)
	}
	res := Assemble(sum)
	if spillDir != nil {
		res.SpilledBytes = spillDir.SpilledBytes()
		res.CompressedSpillBytes = spillDir.SpilledBytes()
		res.RawSpillBytes = spillDir.RawSpilledBytes()
	}
	if dc, ok := tr.(interface{ FetchDials() int64 }); ok {
		res.FetchDials = dc.FetchDials()
	}
	if so, ok := tr.(interface{ ServerOpens() int64 }); ok {
		res.ServerOpens = so.ServerOpens()
	}
	res.Wall = time.Since(start)
	return res, nil
}

// Validate checks job/opts consistency (shared with the multi-process
// coordinator). opts must be normalized.
func Validate(job Job, opts Options) error {
	if job.Mapper == nil {
		return fmt.Errorf("mr: job %q has no mapper", job.Name)
	}
	if opts.Mode == Barrier && job.NewGroup == nil {
		return fmt.Errorf("mr: job %q has no group reducer", job.Name)
	}
	if opts.Mode == Pipelined && job.NewStream == nil {
		return fmt.Errorf("mr: job %q has no stream reducer", job.Name)
	}
	if opts.Mode == Pipelined && opts.Store.Bounded(opts.SpillBytes) == store.SpillMerge && job.Merger == nil {
		return fmt.Errorf("mr: job %q needs a merger for its spill-merge store", job.Name)
	}
	return nil
}

// OpenSpillDir opens the run directory an execution with these options
// needs, or returns nil when the execution never touches disk: the
// run-exchange transports always seal runs, and the in-proc transport needs
// one whenever SpillBytes bounds task memory — barrier map waves and
// spill-merge reducer stores seal runs into it.
func OpenSpillDir(opts Options) (*dfs.RunDir, error) {
	need := opts.Transport != shuffle.InProc || opts.SpillBytes > 0
	if !need {
		return nil, nil
	}
	return dfs.NewRunDirComp(opts.SpillDir, opts.Compression)
}

// Assemble folds a scheduler summary into a Result (shared with the
// multi-process coordinator; SpilledBytes and Wall are the caller's).
//
// Assemble consumes the summary's outputs: it copies every reduce task's
// records once into an exactly sized Result.Output, hands each output chunk
// back to the record-buffer free list, and clears the summary's Output
// fields, so nothing can read a chunk another task has since refilled.
func Assemble(sum *exec.Summary) *Result {
	res := &Result{
		MapWall: sum.MapWall, ShuffleRecords: sum.ShuffleRecords, Spills: sum.MapSpills,
		MapRetries: sum.MapRetries, ReduceRetries: sum.ReduceRetries,
		BackupsLaunched: sum.BackupsLaunched, BackupsWon: sum.BackupsWon,
		ReattachedMaps: sum.ReattachedMaps,
	}
	var n int
	for _, rr := range sum.Reduces {
		n += rr.Output.Len()
	}
	res.Output = make([]core.Record, 0, n)
	for i := range sum.Reduces {
		rr := &sum.Reduces[i]
		res.Output = rr.Output.AppendTo(res.Output)
		rr.Output.Recycle()
		rr.Output = nil
		res.Spills += rr.Spills
		res.MergePasses += rr.MergePasses
		res.FetchBytes += rr.FetchBytes
		if rr.PeakPartialBytes > res.PeakPartialBytes {
			res.PeakPartialBytes = rr.PeakPartialBytes
		}
	}
	return res
}

// SortOutput key-sorts a result's output in place (helper for callers
// needing globally ordered results across reducers).
func SortOutput(recs []core.Record) {
	slices.SortFunc(recs, func(a, b core.Record) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
}
