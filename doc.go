// Package blmr is a from-scratch Go reproduction of "Breaking the MapReduce
// Stage Barrier" (Verma, Zea, Cho, Gupta, Campbell — CLUSTER 2010): a
// barrier-less MapReduce framework in which the Reduce stage consumes
// records as the shuffle delivers them, holding per-key partial results in
// pluggable memory-managed stores.
//
// The implementation lives under internal/: a discrete-event cluster
// simulator (sim, cluster) carrying the full MapReduce engine over a
// simulated HDFS (simmr), a real-concurrency engine split into an execution
// plane (exec: task bodies plus a slot-aware scheduler), pluggable shuffle
// transports (shuffle: in-process batched channels, a sealed spill-run
// exchange, and the same exchange over a loopback TCP run-server) and a thin
// composition (mr), a multi-process engine running worker subprocesses over that wire
// format (mpexec), the seven Reduce-operation classes (reducers),
// partial-result stores including disk spill-and-merge and a
// BerkeleyDB-style KV store (store), the paper's six benchmark
// applications (apps), and an experiment harness reproducing every table
// and figure of the evaluation (harness).
//
// The user code of a job is declared once: exec.Job (mapper, both reducer
// forms, merger, optional combiner, the paper's Reduce class). apps.App is
// that type, mr.Job aliases it and simmr.JobSpec embeds it, so what
// apps.WordCount() returns runs on all three engines without conversion;
// Job.WithCombiner is the one statement of the rule that only
// aggregation-class jobs may combine map-side. A simulated run is a
// harness.RunSpec: a simmr.JobSpec plus the dataset and the testbed, with
// the testbed's cost rates defaulted in harness.Run; a sweep is one call
// of the harness's grid (KillSweep and PolicySweep excepted), and
// cmd/experiments prints them all.
//
// The real-concurrency engine's shuffle is batched and allocation-lean:
// mr.Options.BatchSize sets the records-per-channel-send granularity
// (default 256; 1 reproduces record-at-a-time shuffling), mr.Options.QueueCap
// the per-reducer buffering in batches, and Job.Combiner enables map-side
// folding of same-key records
// (each buffer holds max(BatchSize, 4096) distinct keys) so
// aggregation-class jobs shuffle a fraction of their intermediate records.
//
// The barrier-less reducer does one read-modify-update of a partial result
// per intermediate record (the paper's Algorithm 2), so the in-memory and
// spill stores make a record whose key is already present cheap:
// store.Merge is one hash probe and an in-place value swap. The paper holds
// partials in a Java TreeMap; these stores keep no order while they fill,
// because nothing reads it before they are drained, and sort once when they
// are (Emit, each spill). Word count and the barrier-less sort fold through
// store.MergeSum, which is Merge with store.SumMerger: the in-memory and
// spill stores keep a key's running sum as an int64 from its second value
// on, charge it the length of its decimal form, and format it once, when
// it is drained, so that record parses one count and allocates nothing.
// Post-reduction and selection fold through store.Merge too, with the
// merger that also reunites their spilled partials
// (reducers.SetUnionMerger, reducers.SelectionMerger): one fold path, and
// no store can be read or written by key any other way. The KV store
// alone keeps a get-then-put per fold, the off-the-shelf cost the paper
// measured.
//
// The shuffle is also memory-bounded on demand: mr.Options.SpillBytes caps
// each task's buffered intermediate data. Barrier mappers spill sorted,
// codec-encoded runs to disk (dfs.RunDir) whenever they cross the budget
// and reducers stream an external k-way merge (sortx.Merger over streaming
// sortx.Sources) straight into the reduce function; pipelined reducers
// hold partials in a disk-backed spill-merge store with the same budget.
// Pipelined in-process mappers need no budget: each holds at most one batch
// per partition and blocks on a full channel.
// Datasets whose intermediate data dwarfs RAM complete with partial-result
// memory pinned near the budget (see examples/spill), at byte-identical
// output. SpillBytes (cmd/blmr -spill-bytes) is the real engine's one
// settable memory bound; the spill store's budget without it, the KV cache
// and the combine buffer are constants (DESIGN.md §15), and cmd/blmr -spill
// feeds the simulator only. simmr.JobSpec.SpillBytes models the same
// discipline's I/O cost on the simulated cluster (harness.SpillTradeoff
// sweeps the trade-off).
//
// Sealed runs are compressible: mr.Options.Compression (cmd/blmr
// -compress none|block|delta) selects the block codec for every run the
// engine seals — spill waves, run-exchange segments, intermediate merge
// runs, pipelined store spills. codec.None stores every 32KiB block as it
// is; codec.Block is a dependency-free snappy-shaped LZ over the blocks;
// codec.DeltaBlock additionally front-codes the keys inside each block,
// lossless in any order and the big win for sorted text-heavy keys (a
// 1M-line WordCount spill seals ~30x smaller). Only the sealing side knows
// the codec: every run's header names it, and every reader learns it there.
// Compressed sections travel compressed through the TCP run-server and
// decompress at the consuming merger, so fetch bytes shrink by the same
// ratio; decompressed merge order is unchanged, so barrier output stays
// byte-identical across codecs. mr.Result.{RawSpillBytes,
// CompressedSpillBytes,FetchBytes} report the ratio and wire volume;
// simmr.JobSpec.Compression with Costs.{CompressDelay,CompressRatio}
// model the trade-off on the simulated cluster
// (harness.CompressionTradeoff sweeps the codecs).
//
// The shuffle data plane is pluggable: mr.Options.Transport selects
// shuffle.InProc (shared memory) or shuffle.TCP (every map output wave
// sealed as a spill-run segment file, sections fetched from a loopback
// run-server) — byte-identical in barrier mode. mr.Options.MergeFanIn (default 64) caps
// how many runs the external merge opens at once, folding the excess
// through intermediate passes (mr.Result.MergePasses). Multi-process
// execution composes the same task bodies across worker subprocesses:
// `blmr -workers N -transport tcp` (internal/mpexec, examples/cluster).
// The simulator mirrors the knobs with simmr.JobSpec.Workers (N-node
// sub-cluster placement), JobSpec.Transport and Costs.RunFetchDelay
// (harness.WorkerScaling sweeps worker counts).
//
// The multi-process engine breaks the stage barrier: reduce tasks are
// dispatched at job start and every completed map's sealed-run metadata is
// streamed to them as push messages, so reducers fetch and consume runs
// while later maps are still running (mr.Options.Staged — cmd/blmr
// -staged — restores the back-to-back waves; barrier output stays
// byte-identical either way). Pipelined run-exchange maps seal
// partitioned-but-unsorted waves (stream reducers impose no input order),
// deleting the map-side sort from the barrier-less path. The run exchange
// has one wire protocol, "BLR2", and one way to open a remote section:
// through the pooled, multiplexed fetch plane (shuffle.FetchPool) — one
// connection per peer run-server with request-id-framed pipelining
// (prefetch bounded by MergeFanIn) and per-connection reusable decode
// buffers plus arena string allocation, so the fetch path neither dials
// nor allocates per section (mr.Result.FetchDials counts dials, churn
// re-routes included; a connection opening with any other magic is
// closed unanswered). simmr.JobSpec.Staged
// and the per-pooled-peer Costs.RunFetchDelay model the same machinery
// on the simulated cluster (harness.OverlapSweep sweeps staged vs
// overlapped; overlap is never slower).
//
// The fetch plane has a raw-speed floor on both ends of that
// connection. Serving: the run-server resolves sections through a
// refcounted LRU of open file handles (one os.Open per distinct sealed
// file instead of one per request — mr.Result.ServerOpens counts the
// misses) and ships large sections zero-copy with offset sendfile, the
// header flushed ahead (Linux; buffered io.Copy elsewhere and for small
// sections). Consuming: every fetched section decodes on the goroutine
// that drains it, through the codec.SectionDecoder its pooled connection
// owns, CRC-checking each block as it goes; stored blocks of standard
// framing are read straight into the connection's string arena. Sealed runs
// have one format, "BLC3", whatever the codec: a per-block CRC32 that is
// always present and always checked, plus a cross-block LZ dictionary
// window (a block's matches may reach 32KiB into its predecessor's raw
// bytes; sections still start self-contained). Older run magics, and the
// headerless record stream None once sealed, are rejected as corrupt.
//
// The multi-process engine survives worker churn: workers heartbeat on
// their control connection (every second, one pool-wide constant; silent
// for four beats means dead), a dead worker's
// in-flight tasks are requeued on survivors, completed maps whose sealed
// runs died with it are re-executed with supersede pushes re-routing any
// parked reduce task, and section fetches retry with backed-off redials
// (internal/retry). exec.Options.Speculative (cmd/blmr -speculative)
// clones straggler maps onto idle slots once three quarters of the wave is
// done; attempt IDs keep duplicate routes idempotent, so barrier
// output stays byte-identical through the loss of any single worker.
// cmd/blmr -chaos-kill injects the fault (SIGKILL one worker mid-job) for
// smoke runs. The simulator injects the same fault with
// simmr.JobSpec.KillWorkerAt (worker 0 dies) and leaves the recovery to the
// scheduler core the real engine runs; harness.KillSweep(KillWorker, …)
// sweeps kill times, and harness.KillPrediction is pinned to the real
// engine's measured recovery overhead by the "worker-kill" row of
// harness.Parity — the one table of every sim ↔ real claim (name,
// tolerance, prediction), checked by harness.CheckParity.
//
// Every such decision — requeue, resubmit, clone, which free worker gets
// which task — is made in one place, the scheduler's decision core
// (internal/exec/schedcore.go, exec.Core): plain state plus Admit / Dispatch
// / Settle / WorkerLost, with no lock, clock or goroutine in it. It has two
// drivers. exec.Scheduler's applies one event at a time under the run lock
// and starts exactly the attempts the core returned, so a goroutine exists
// only while it is inside a worker call; internal/simmr's applies the same
// events from simulated processes in virtual time, so a simulated run's
// placement, re-execution and speculation are the real engines' by
// construction. exec.TestScheduleExplorer drives the core through 100 000
// seeded event orders per test run, checking its invariants after every
// event and printing a replayable seed when one breaks (DESIGN.md §7). A re-executed map is counted once in
// Result.ShuffleRecords / Spills.
//
// The multi-process engine is multi-tenant: mpexec.Service runs a stream
// of concurrently admitted jobs on one coordinator and worker pool
// (cmd/blmr -serve / -submit, newline-delimited JSON submissions on
// -addr). Admission is a bounded queue (mpexec.ServiceConfig.MaxQueued;
// full refuses, it never buffers unboundedly) feeding at most
// MaxConcurrent running jobs; each job gets one map slot per worker and its
// whole reduce wave under a cross-job slot ledger (exec.SlotPool, maps
// capped at ServiceConfig.PoolMapSlots) and a fresh instance of the placement
// policy named by ServiceConfig.Policy (cmd/blmr -policy): exec.ParsePolicy
// builds round-robin, least-loaded or locality policies routing every task
// over per-worker snapshots (exec.WorkerSnapshot, with kind-split
// cross-job load). Every job's frames, spill directories, reduce sources
// and abort latch are its own, so per-job barrier output stays
// byte-identical under concurrency and churn. The simulator mirrors the
// stream with simmr.RunStream (one decision core per job over one shared
// exec.SlotPool, as in the service); harness.PolicySweep sweeps skew levels, and the
// "policy" row of harness.Parity pins the least-loaded / round-robin
// makespan ratio to the real engine's measured one.
//
// The job service survives its own death: with mpexec.ServiceConfig
// .StateDir (cmd/blmr -serve -state-dir) every durable state transition —
// admission, start, each completed map's sealed-wave metadata, each reduce
// partition's output, retirement — is appended to a length+CRC-framed
// write-ahead journal (internal/wal: torn tails from a mid-append crash
// are truncated on reopen, any other damage is wal.ErrCorrupt) and
// compacted down to live-ticket state as jobs retire; one fold decides what
// is live for resume, compaction and -journal-stat alike (the last record
// per ticket, map and partition wins). A restarted service
// (cmd/blmr -resume; mpexec.NewService over the same StateDir, with
// ServiceConfig.Resolver mapping journaled job names back to code) replays
// the journal, re-enters unfinished jobs ahead of new submissions, and
// rebinds the address recorded in <state-dir>/coord.addr, because the
// dead coordinator's workers keep their run-servers and sealed files
// alive and re-dial that address under capped backoff. Each
// re-registration carries an 'A' advertisement of the sealed files still
// verifiably on disk (CRC-checked), and journaled maps whose files all
// match re-attach into the routing table instead of re-executing —
// Result.ReattachedMaps counts them, Service.Resumed exposes the replayed
// tickets, mpexec.ReadJournalStats (cmd/blmr -journal-stat) summarises a
// journal read-only, and Service.Abandon simulates the crash in-process
// for tests. Barrier output is byte-identical across the kill.
// simmr.JobSpec.KillCoordinatorAt with Costs.{CoordRestartDelay,
// ReattachPerMap} model the crash on the simulated cluster;
// harness.KillSweep(KillCoordinator, …) sweeps crash times, and the
// "coord-restart" row of harness.Parity pins the predicted restart overhead
// to the real engine's measured one.
//
// See DESIGN.md for the system inventory, and `experiments -only ablations`
// for the design-choice ablations (§9).
package blmr
