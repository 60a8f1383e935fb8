// Package simmr executes MapReduce jobs on the simulated cluster, in either
// classic barrier mode (fetch-all, merge-sort, grouped reduce — stock
// Hadoop 0.20) or the paper's pipelined barrier-less mode (per-mapper fetch
// processes feeding a FIFO queue consumed record-at-a-time by a stream
// reducer holding partial results).
//
// Data is real — real records flow through real reducers and real partial-
// result stores — while time and memory are accounted in scaled "virtual"
// units so laptop-sized datasets reproduce the timing shape of the paper's
// multi-GB cluster runs (see Config.ByteScale / RecordScale).
//
// Scheduling is not modelled here: every job runs through the decision core
// the real engines run (exec.Core — placement, slots, re-execution,
// speculation), driven in virtual time by driver.go. The package owns the
// cost model, the data-plane model and the fault injections.
package simmr

import (
	"blmr/internal/cluster"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/metrics"
	"blmr/internal/shuffle"
	"blmr/internal/store"
)

// Mode selects barrier or barrier-less execution — the engines' one
// exec.Mode, so a spec built for one engine names its mode to all three.
type Mode = exec.Mode

// Execution modes.
const (
	// Barrier: Reduce starts only after every map output is fetched and
	// merge-sorted (Figure 2).
	Barrier = exec.Barrier
	// Pipelined: Reduce consumes records as the shuffle delivers them
	// (Figure 3).
	Pipelined = exec.Pipelined
)

// CostModel holds CPU cost rates in seconds per *virtual* unit. Virtual
// record and byte counts are the real counts scaled by Config.RecordScale /
// Config.ByteScale.
type CostModel struct {
	// MapCPUPerRecord is map-function time per input record.
	MapCPUPerRecord float64
	// MapCPUPerByte is additional map time per input byte (parsing).
	MapCPUPerByte float64
	// ReduceCPUPerRecord is reduce time per intermediate record (both the
	// grouped reduce pass and the streaming Consume path).
	ReduceCPUPerRecord float64
	// StoreCPUPerOp is partial-result store overhead per record folded
	// into the store (one Merge) in the barrier-less path (tree insertion,
	// paper Section 6.1.1).
	StoreCPUPerOp float64
	// SortCPUPerCompare is merge-sort time per comparison in the barrier
	// path's sort phase.
	SortCPUPerCompare float64
	// FinalizeCPUPerRecord is per-output-record cost of the barrier-less
	// finalize pass (emitting the partial-result structure).
	FinalizeCPUPerRecord float64
	// SpillRunDelay is the per-spill-run fixed latency (seek + file open)
	// charged when JobSpec.SpillBytes forces a task's output into multiple
	// runs — the knob that makes the memory/throughput trade-off visible:
	// smaller budgets mean more runs, more seeks, slower jobs.
	SpillRunDelay float64
	// RunFetchDelay is the fixed fetch latency (RPC + connection + seek) a
	// reducer pays over the run-exchange shuffle (JobSpec.Transport ==
	// TCPRunExchange). It models the wall-clock engine's pooled fetch
	// plane: one multiplexed connection per peer run-server, so the delay
	// is charged once per (reduce task, peer) — later sections from that
	// peer ride the pipelined connection for free.
	RunFetchDelay float64
	// CompressDelay is the CPU cost in seconds per virtual byte of
	// sealed-run (de)compression work, charged on the sealing mapper for
	// its output and on the consuming reducer for what it decodes — the
	// simulated counterpart of the wall-clock block codecs
	// (mr.Options.Compression). Only applies when JobSpec.Compression is
	// enabled.
	CompressDelay float64
	// CompressRatio is the workload class's sealed-run compression ratio
	// (raw/compressed bytes; e.g. sorted text keys front-code far better
	// than uniform numeric ones). <= 1 falls back to the default ratio.
	// Disk writes, re-reads and shuffle transfers of sealed map output are
	// divided by it when JobSpec.Compression is enabled.
	CompressRatio float64
	// KVOpDelay is the per-operation latency of the off-the-shelf KV store
	// (the paper observed ~30,000 inserts/s => ~33µs/op). Applied only
	// when Store == store.KV.
	KVOpDelay float64
	// CoordRestartDelay is the fixed control-plane outage of a coordinator
	// crash-restart (process restart, journal replay, worker
	// re-registration), charged when JobSpec.KillCoordinatorAt fires. No
	// task is dispatched and no completion is journaled during the outage.
	CoordRestartDelay float64
	// ReattachPerMap is the per-journaled-map cost of sealed-run re-attach
	// on coordinator restart (advertisement matching + route re-install),
	// charged during the restart window in place of a re-execution — the
	// reason resuming beats cold re-execution.
	ReattachPerMap float64
}

// DefaultCosts returns rates calibrated so the default cluster reproduces
// the paper's stage proportions (map-heavy jobs of a few hundred seconds).
func DefaultCosts() CostModel {
	return CostModel{
		MapCPUPerRecord:      8e-6,
		MapCPUPerByte:        12e-9,
		ReduceCPUPerRecord:   1.5e-6,
		StoreCPUPerOp:        1.2e-6,
		SortCPUPerCompare:    70e-9,
		FinalizeCPUPerRecord: 1e-6,
		SpillRunDelay:        4e-3,
		// The wall-clock fetch plane serves sections from cached file handles
		// with zero-copy sends (no per-section open+seek), so the fixed fetch
		// latency is connection/RPC cost only.
		RunFetchDelay: 1.0e-3,
		// Effective consumer-side rate, below the raw ~1.6 GB/s LZ-class
		// codec speed. It was calibrated when the fetch plane still decoded
		// blocks on a worker pool, and is kept so that the sweeps stay
		// byte-identical; ROADMAP item 3 recalibrates it from spans.
		CompressDelay:     0.4e-9,
		CompressRatio:     2.0,
		KVOpDelay:         1.0 / 30000,
		CoordRestartDelay: 0.25,
		ReattachPerMap:    2e-4,
	}
}

// Transport names the shuffle data plane the simulated job models: the
// wall-clock engine's shuffle.Kind, under the simulator's names.
type Transport = shuffle.Kind

// Available simulated transports.
const (
	// InProcShuffle moves intermediate data through memory (the default;
	// the behaviour of every pre-split simulation).
	InProcShuffle = shuffle.InProc
	// TCPRunExchange seals map output as spill runs fetched through
	// per-node run-servers; reducers stream an external merge (sort-phase
	// memory is bounded by read buffers) and pay RunFetchDelay per peer.
	TCPRunExchange = shuffle.TCP
)

// JobSpec describes one simulated MapReduce job: the user code every engine
// shares, plus how the simulated cluster runs it.
type JobSpec struct {
	// Job is the user code (see exec.Job). Name also labels the job's
	// output file; Merger is required for store.SpillMerge.
	exec.Job
	// Reducers is the number of reduce tasks.
	Reducers int
	// Mode selects barrier or pipelined execution.
	Mode Mode
	// Workers, when > 0, confines every task to the first Workers cluster
	// nodes — the simulated counterpart of `-workers N`: map task i runs on
	// worker i mod Workers (losing data locality when that is not the
	// chunk's home), reduce task r on worker r mod Workers. 0 uses the
	// whole cluster with locality-driven placement.
	Workers int
	// Transport selects the simulated shuffle data plane (default
	// InProcShuffle). The run exchange charges the map output's
	// materialization and RunFetchDelay per pooled peer, and bounds the
	// barrier sort phase's memory at the external merge's read buffers.
	Transport Transport
	// Staged (TCP transport only) restores the multi-process engine's
	// pre-overlap control plane: reducers get no sealed-run routes until
	// the entire map wave completes, so every fetch waits behind the stage
	// barrier — the simulated counterpart of exec.Options.Staged. The
	// default (false) releases each map's sections to the fetchers the
	// moment it publishes, the streamed-metadata overlap.
	Staged bool
	// Compression enables the sealed-run codec model, the simulated
	// counterpart of mr.Options.Compression: map output is materialized,
	// re-read and shuffled at 1/Costs.CompressRatio of its raw volume, and
	// Costs.CompressDelay per raw byte of CPU is charged on the sealing
	// and decoding sides. codec.None models the uncompressed engine.
	Compression codec.Compression
	// Store selects the partial-result strategy for pipelined mode.
	Store store.Kind
	// HeapBudget is the per-reducer virtual heap cap in bytes; exceeding
	// it fails the job like a JVM OutOfMemoryError. 0 = unlimited.
	HeapBudget int64
	// SpillThreshold is the in-memory partial-results budget (virtual
	// bytes) for the spill-merge store (paper: 240 MB).
	SpillThreshold int64
	// SpillBytes, when > 0, bounds every task's buffered intermediate
	// data in virtual bytes — the simulated counterpart of
	// mr.Options.SpillBytes. Map tasks whose output exceeds the budget
	// seal multiple sorted runs and pay an extra merge pass (full output
	// re-read + re-write, per-run SpillRunDelay, merge comparisons);
	// barrier reducers merge fetched runs externally, so their sort-phase
	// memory is sampled at min(fetched, SpillBytes); pipelined reducers
	// with an InMemory store and a Merger are upgraded to a spill-merge
	// store budgeted at SpillBytes. 0 models the all-in-RAM engine.
	SpillBytes int64
	// Costs are the CPU rates; zero value uses DefaultCosts.
	Costs CostModel
	// Speculative is exec.Scheduler.Speculate: once three quarters of the
	// map wave is done, a slot with nothing pending runs one backup attempt
	// of a map still running on another node, and the first to publish wins
	// (Hadoop's speculative execution; relevant under heterogeneity, the
	// paper's future work).
	Speculative bool
	// SnapshotPeriod, when > 0, makes pipelined reducers record a progress
	// Snapshot every period virtual seconds — the online-processing
	// monitoring the barrier-less model enables.
	SnapshotPeriod float64
	// KillWorkerAt, when > 0, injects worker churn: at this virtual time
	// worker-pool node 0 dies. Its published map outputs are lost (fetchers
	// park until a replacement publishes — the sim counterpart of the
	// multi-process engine's supersede re-route), map attempts in flight
	// there report the loss when they end, and the scheduler core is told
	// the worker is gone; what re-runs where is the core's decision, as on
	// the real engine. The model covers map-side churn only: the node's
	// running reduce attempts are modelled as surviving (DESIGN §11). The
	// pool must have at least two nodes or the job fails.
	KillWorkerAt float64
	// KillCoordinatorAt, when > 0, injects a coordinator crash at this
	// virtual time: the control plane goes dark for Costs.CoordRestartDelay
	// (restart, journal replay, worker re-registration) and nothing is
	// dispatched meanwhile. Map outputs published before the crash were
	// journaled and survive on their workers' sealed runs — the restarted
	// coordinator re-attaches each at Costs.ReattachPerMap instead of
	// re-executing it. An attempt that spans the crash has no coordinator
	// to report to: it was never journaled and is resubmitted once the
	// control plane returns. Like KillWorkerAt this models map-side recovery only
	// (DESIGN §14): reduce progress is not checkpointed mid-task.
	KillCoordinatorAt float64
}

// Result reports one job execution.
type Result struct {
	// Output is every record written by reducers (unordered across
	// reducers; deterministic for a fixed configuration).
	Output []core.Record
	// Completion is the job completion virtual time in seconds.
	Completion float64
	// MapDone is when the last map task attempt finished (losing
	// speculative attempts included).
	MapDone float64
	// MapOutputsReady is when the last map OUTPUT became available to the
	// shuffle — with speculation this is the winning attempt's time.
	MapOutputsReady float64
	// Failed is true when the job was killed (reducer OOM).
	Failed bool
	// FailReason describes the failure.
	FailReason string
	// Metrics holds the task timelines and memory samples.
	Metrics *metrics.Collector
	// Spills counts spill-merge runs written across reducers.
	Spills int
	// SpillRuns counts map-side spill runs sealed under JobSpec.SpillBytes
	// (every attempt's, lost and losing ones included: they did the disk
	// work).
	SpillRuns int
	// MapTasks aids analysis.
	MapTasks int
	// MapRetries is the scheduler core's exec.Summary.MapRetries: map
	// re-executions after a lost attempt or a lost output.
	MapRetries  int
	PeakMemVirt int64
	// LostMapOutputs counts published map outputs lost to a worker kill
	// (JobSpec.KillWorkerAt) and re-executed on survivors; each also counts
	// as a MapRetries entry.
	LostMapOutputs int
	// ReattachedMaps counts map outputs journaled before a coordinator
	// crash (JobSpec.KillCoordinatorAt) and re-attached from surviving
	// sealed runs on restart instead of re-executed.
	ReattachedMaps int
	// CoordRestarts counts injected coordinator crash-restarts survived.
	CoordRestarts int
	// ShuffleBytes is the total virtual bytes of intermediate data moved
	// from mappers to reducers (post-combiner).
	ShuffleBytes int64
	// MemoHits counts map tasks served from the memoization cache.
	MemoHits int
	// BackupsLaunched / BackupsWon count speculative map attempts and how
	// many beat the original (the core's exec.Summary counts).
	BackupsLaunched int
	BackupsWon      int
	// Snapshots holds periodic progress observations of pipelined
	// reducers when JobSpec.SnapshotPeriod > 0 (online monitoring).
	Snapshots []Snapshot
}

// Snapshot is one online progress observation of a pipelined reducer.
type Snapshot struct {
	T        float64
	Reducer  int
	Consumed int   // records consumed so far
	Keys     int   // live partial-result keys
	MemVirt  int64 // partial-result footprint, virtual bytes
}

// Config parameterizes the engine (cluster + virtual scaling).
type Config struct {
	// Cluster is the simulated datacenter.
	Cluster cluster.Config
	// Replication is the HDFS replication factor (paper: 3).
	Replication int
	// ByteScale converts real record bytes to virtual bytes for all I/O
	// timing and memory accounting (virtual = real * ByteScale).
	ByteScale float64
	// RecordScale converts real record counts to virtual record counts
	// for CPU accounting. Usually set equal to ByteScale.
	RecordScale float64
	// FetchParallelism bounds concurrent fetches per reducer in barrier
	// mode (Hadoop's parallel copies, default 5).
	FetchParallelism int
	// Memo, when non-nil, caches map outputs across runs (DryadInc-style
	// memoization — the paper's future-work extension).
	Memo *MemoCache
}

// DefaultConfig mirrors the paper's testbed with unit scaling.
func DefaultConfig() Config {
	return Config{
		Cluster:          cluster.Default(),
		Replication:      3,
		ByteScale:        1,
		RecordScale:      1,
		FetchParallelism: 5,
	}
}
