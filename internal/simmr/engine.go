package simmr

import (
	"fmt"
	"math"

	"blmr/internal/cluster"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/metrics"
	"blmr/internal/sim"
	"blmr/internal/sortx"
	"blmr/internal/store"
)

// Engine runs one MapReduce job on a freshly built simulated cluster.
// Create one Engine per job execution: the kernel is drained by Run.
type Engine struct {
	K   *sim.Kernel
	C   *cluster.Cluster
	D   *dfs.DFS
	Cfg Config
	Col *metrics.Collector

	// Worker-churn injection (JobSpec.KillWorkerAt): the doomed pool node
	// and its death time. nil/0 when the job configures no kill.
	killNode *cluster.Node
	killAt   float64

	// Coordinator-crash injection (JobSpec.KillCoordinatorAt): the crash
	// time and the event the restarted control plane fires once journal
	// replay and sealed-run re-attach finish. coordUp nil = no kill.
	coordKillAt float64
	coordUp     *sim.Event
}

// NewEngine builds the kernel, cluster and DFS for one run.
func NewEngine(cfg Config) *Engine {
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.ByteScale <= 0 {
		cfg.ByteScale = 1
	}
	if cfg.RecordScale <= 0 {
		cfg.RecordScale = cfg.ByteScale
	}
	if cfg.FetchParallelism <= 0 {
		cfg.FetchParallelism = 5
	}
	k := sim.NewKernel()
	c := cluster.New(k, cfg.Cluster)
	return &Engine{
		K:   k,
		C:   c,
		D:   dfs.New(c, cfg.Replication),
		Cfg: cfg,
		Col: metrics.NewCollector(),
	}
}

// Ingest loads input splits into the DFS (no simulated time passes).
func (e *Engine) Ingest(name string, splits [][]core.Record) *dfs.File {
	return e.D.Ingest(name, splits, e.Cfg.ByteScale)
}

// virtBytes converts real record bytes to virtual bytes.
func (e *Engine) virtBytes(realBytes int64) int64 {
	return int64(float64(realBytes) * e.Cfg.ByteScale)
}

// virtRecs converts a real record count to a virtual record count.
func (e *Engine) virtRecs(n int) float64 { return float64(n) * e.Cfg.RecordScale }

// mapOutput is the shuffle-service view of one completed map task.
type mapOutput struct {
	node      *cluster.Node
	done      *sim.Event
	parts     [][]core.Record // partition -> records
	partBytes []int64         // partition -> virtual bytes

	// Churn recovery: lost marks a published output that died with its
	// worker; redone fires when the re-executed attempt republishes it on a
	// survivor. Fetchers that find lost set park on redone — the sim
	// counterpart of the PushSource resolver waiting for a superseding
	// 'S' frame.
	lost   bool
	redone *sim.Event

	// startedAt is when the latest original attempt got its slot (-1 while
	// queued); the speculator uses it to spot stragglers.
	startedAt float64
}

// shuffleState tracks map outputs for the reducers and the completion
// fraction that arms speculative backups.
type shuffleState struct {
	maps      []*mapOutput
	doneCount int
	durSum    float64    // summed slot-to-publish durations of done maps
	arm       *sim.Event // fires when the speculation threshold is reached
	armAt     int
	allDone   *sim.Event // fires when every map output is published — the
	// stage barrier a Staged TCP job's fetchers wait behind
}

func newShuffleState(k *sim.Kernel, nMaps, nReduce int) *shuffleState {
	s := &shuffleState{
		maps:    make([]*mapOutput, nMaps),
		arm:     sim.NewEvent(k, "speculation-armed"),
		allDone: sim.NewEvent(k, "maps-all-done"),
	}
	for i := range s.maps {
		s.maps[i] = &mapOutput{
			done:      sim.NewEvent(k, fmt.Sprintf("map-%d-done", i)),
			redone:    sim.NewEvent(k, fmt.Sprintf("map-%d-redone", i)),
			parts:     make([][]core.Record, nReduce),
			partBytes: make([]int64, nReduce),
			startedAt: -1,
		}
	}
	return s
}

// Run executes job over input. It normalizes spec defaults, spawns every
// task, drives the kernel to completion, and returns the result.
func (e *Engine) Run(job JobSpec, input *dfs.File) *Result {
	res := e.prepare(&job, input)
	if res.Failed {
		return res
	}
	if job.KillWorkerAt > 0 {
		pool := e.poolNodes(&job)
		if len(pool) < 2 {
			res.Failed = true
			res.FailReason = fmt.Sprintf("job %q: killing worker 0 leaves no survivors in a %d-node pool",
				job.Name, len(pool))
			return res
		}
		e.killNode = pool[0]
		e.killAt = job.KillWorkerAt
	}
	if job.KillCoordinatorAt > 0 {
		e.coordKillAt = job.KillCoordinatorAt
		e.coordUp = sim.NewEvent(e.K, "coordinator-restarted")
	}
	e.spawnJob(&job, input, res, nil)
	e.K.Run()
	e.Col.CloseAll(res.Completion)
	if first, last, ok := e.Col.StageBounds(metrics.StageMap); ok {
		_ = first
		res.MapDone = last
	}
	res.PeakMemVirt = e.Col.PeakMem()
	return res
}

// prepare normalizes one job spec against the engine and validates it,
// returning the job's (possibly already-failed) result shell.
func (e *Engine) prepare(job *JobSpec, input *dfs.File) *Result {
	if job.Reducers <= 0 {
		job.Reducers = 1
	}
	if (job.Costs == CostModel{}) {
		job.Costs = DefaultCosts()
	}
	res := &Result{Metrics: e.Col, MapTasks: len(input.Chunks)}
	if job.Mode == Pipelined && job.SpillBytes > 0 && job.Store != store.KV && job.Merger == nil {
		// Same contract as mr.Run: a bounded-memory pipelined run needs a
		// merger to reunite spilled partials. The simulator reports it as
		// a failed job (its error channel) rather than silently running
		// unbounded.
		res.Failed = true
		res.FailReason = fmt.Sprintf("job %q needs a merger for a bounded-memory pipelined run", job.Name)
		return res
	}
	if job.Workers > len(e.C.Nodes) {
		job.Workers = len(e.C.Nodes)
	}
	return res
}

// placer overrides task placement: it returns the node task idx of the
// given kind runs on. RunStream routes placement through an exec.Policy
// here; nil keeps the historical default (map i and reduce r on pool node
// index mod pool size, locality-driven when the pool is the whole cluster).
type placer func(isMap bool, idx int) *cluster.Node

// spawnJob spawns one prepared job's tasks onto the shared kernel and
// returns the job's done event. It does not drive the kernel — Run drains
// it for a single job; RunStream spawns several jobs first.
func (e *Engine) spawnJob(job *JobSpec, input *dfs.File, res *Result, place placer) *sim.Event {
	shuffle := newShuffleState(e.K, len(input.Chunks), job.Reducers)
	jobDone := sim.NewEvent(e.K, "job-done")
	reducersLeft := sim.NewWaitGroup(e.K, "reducers", job.Reducers)
	if e.killNode != nil {
		e.K.Spawn("chaos-kill", func(p *sim.Proc) {
			e.chaosKill(p, job, input, shuffle, res, jobDone)
		})
	}
	if e.coordUp != nil {
		e.K.Spawn("coord-kill", func(p *sim.Proc) {
			e.coordKill(p, job, shuffle, res, jobDone)
		})
	}

	for i, ch := range input.Chunks {
		i, ch := i, ch
		// Workers > 0 confines placement to an N-node sub-cluster (the
		// multi-process mode's worker pool), losing chunk locality when the
		// assigned worker holds no replica — ReadChunk then pays the
		// transfer, exactly the cost a small worker pool incurs.
		var node *cluster.Node
		if place != nil {
			node = place(true, i)
		} else if job.Workers > 0 {
			node = e.C.Nodes[i%job.Workers]
		}
		e.K.Spawn(fmt.Sprintf("map-%d", i), func(p *sim.Proc) {
			e.mapTask(p, job, i, ch, node, shuffle, res)
		})
	}
	if job.Speculative && len(input.Chunks) > 1 {
		shuffle.armAt = int(speculativeThreshold * float64(len(input.Chunks)))
		if shuffle.armAt < 1 {
			shuffle.armAt = 1
		}
		e.K.Spawn("speculator", func(p *sim.Proc) {
			e.speculator(p, job, input, shuffle, res)
		})
	}
	for r := 0; r < job.Reducers; r++ {
		r := r
		pool := len(e.C.Nodes)
		if job.Workers > 0 {
			pool = job.Workers
		}
		// Map-side churn model: reduce placement ignores KillWorkerAt —
		// the dead worker's reduce tasks are modeled as surviving
		// (DESIGN §11), so a killed run's overhead against an undisturbed
		// baseline measures exactly the map re-execution + re-route cost.
		node := e.C.Nodes[r%pool]
		if place != nil {
			node = place(false, r)
		}
		e.K.Spawn(fmt.Sprintf("reduce-%d", r), func(p *sim.Proc) {
			defer reducersLeft.Done()
			if job.Mode == Barrier {
				e.barrierReduce(p, job, r, node, shuffle, res, jobDone)
			} else {
				e.pipelinedReduce(p, job, r, node, shuffle, res, jobDone)
			}
		})
	}
	e.K.Spawn("job-waiter", func(p *sim.Proc) {
		reducersLeft.Wait(p)
		if !res.Failed {
			res.Completion = p.Now()
		}
		jobDone.Fire()
	})
	return jobDone
}

// mapTask executes one map attempt chain (with one injected retry when
// configured): read the chunk locally, run the real mapper, partition the
// intermediate records, write them to local disk, and publish to the
// shuffle service.
func (e *Engine) mapTask(p *sim.Proc, job *JobSpec, idx int, ch *dfs.Chunk, node *cluster.Node, shuffle *shuffleState, res *Result) {
	if node == nil {
		node = ch.Primary()
	}
	for attempt := 0; ; attempt++ {
		if e.coordDown(p.Now()) {
			// No coordinator to dispatch the task: it stays queued until the
			// restarted control plane finishes replay + re-attach.
			e.coordUp.Wait(p)
		}
		if e.nodeDead(node, p.Now()) {
			// The assigned worker is already gone: the scheduler just
			// re-queues the task on a survivor — no attempt was wasted.
			node = e.survivorNode(idx, job)
		}
		node.MapSlots.Acquire(p, 1)
		shuffle.maps[idx].startedAt = p.Now()
		tok := e.Col.TaskStart(metrics.StageMap, p.Now())

		// Memoized map outputs skip the read and the map computation
		// entirely; only the cached output's local disk read is charged.
		var memoKeyStr string
		if e.Cfg.Memo != nil {
			memoKeyStr = memoKey(job.Name, job.Reducers, compressRatio(job), ch.Records)
			if entry, ok := e.Cfg.Memo.lookup(memoKeyStr); ok {
				node.DiskRead(p, entry.outDisk)
				res.MemoHits++
				e.publishMapOutput(p.Now(), node, shuffle, shuffle.maps[idx], entry, res)
				e.Col.TaskEnd(tok, p.Now())
				node.MapSlots.Release(1)
				return
			}
		}

		fail := attempt == 0 && idx == e.Cfg.FailMapTask
		entry := e.runMapAttempt(p, job, ch, node, fail)
		if entry == nil {
			// Injected failure: the attempt dies before publishing output;
			// the framework re-executes it (paper Section 3.1: fault
			// tolerance is unchanged).
			res.MapRetries++
			e.Col.TaskEnd(tok, p.Now())
			node.MapSlots.Release(1)
			continue
		}

		if e.nodeDead(node, p.Now()) {
			// The worker died under this attempt: its output is gone
			// before publishing, so the attempt re-runs on a survivor —
			// the heartbeat-timeout re-execution path.
			res.MapRetries++
			e.Col.TaskEnd(tok, p.Now())
			node.MapSlots.Release(1)
			node = e.survivorNode(idx, job)
			continue
		}

		if e.coordUp != nil && shuffle.maps[idx].startedAt < e.coordKillAt && p.Now() >= e.coordKillAt {
			// The attempt spanned the crash: the worker's control
			// connection died under it, so the completion was never
			// journaled (its sealed runs survive, but only journaled maps
			// re-attach) — it re-runs once the coordinator returns.
			res.MapRetries++
			e.Col.TaskEnd(tok, p.Now())
			node.MapSlots.Release(1)
			if e.coordDown(p.Now()) {
				e.coordUp.Wait(p)
			}
			continue
		}

		if e.Cfg.Memo != nil {
			e.Cfg.Memo.insert(memoKeyStr, entry)
		}
		res.SpillRuns += entry.spillRuns
		e.publishMapOutput(p.Now(), node, shuffle, shuffle.maps[idx], entry, res)
		e.Col.TaskEnd(tok, p.Now())
		node.MapSlots.Release(1)
		return
	}
}

// runMapAttempt performs the data work of one map attempt on node: chunk
// read, the real mapper, optional combining, and the local write of the
// partitioned output. A nil return simulates a mid-task crash (before any
// output is visible).
func (e *Engine) runMapAttempt(p *sim.Proc, job *JobSpec, ch *dfs.Chunk, node *cluster.Node, injectFailure bool) *memoEntry {
	recs := e.D.ReadChunk(p, node, ch)
	em := core.NewPartitionedEmitter(job.Reducers, len(recs)/job.Reducers+1)
	var inBytes int64
	for _, r := range recs {
		inBytes += r.Size()
		job.Mapper.Map(r.Key, r.Value, em)
	}
	parts := em.Parts
	partBytes := make([]int64, job.Reducers)
	for pi, part := range parts {
		partBytes[pi] = e.virtRecsBytes(part)
	}
	cpu := e.virtRecs(len(recs))*job.Costs.MapCPUPerRecord +
		float64(e.virtBytes(inBytes))*job.Costs.MapCPUPerByte
	node.Compute(p, cpu)

	if job.Combiner != nil {
		var combineRecs int
		for pi := range parts {
			combineRecs += len(parts[pi])
			parts[pi], partBytes[pi] = e.combinePartition(parts[pi], job.Combiner)
		}
		node.Compute(p, e.virtRecs(combineRecs)*job.Costs.StoreCPUPerOp)
	}

	if injectFailure {
		return nil
	}

	var outVirt int64
	for _, b := range partBytes {
		outVirt += b
	}
	// Sealed-run compression (JobSpec.Compression): every materialization
	// of map output — spill runs, the merge pass, the final partitioned
	// file — moves 1/ratio of the raw bytes, at CompressDelay per raw byte
	// of sealing CPU charged once per write.
	ratio := compressRatio(job)
	outDisk := int64(float64(outVirt) / ratio)
	// External shuffle (JobSpec.SpillBytes): output that outgrows the
	// buffer budget is sealed as ceil(out/budget) sorted runs, then merged
	// into the final partitioned file in one extra pass — a full re-read
	// and re-write of the output, per-run fixed latency (seek/open), and
	// the k-way merge's comparisons. This is the throughput price of the
	// memory bound; the final write below is charged either way.
	spillRuns := 0
	if job.SpillBytes > 0 && outVirt > job.SpillBytes {
		spillRuns = int((outVirt + job.SpillBytes - 1) / job.SpillBytes)
		outRecs := 0
		for _, part := range parts {
			outRecs += len(part)
		}
		node.DiskWrite(p, outDisk) // seal the spill runs
		p.Sleep(float64(spillRuns) * job.Costs.SpillRunDelay)
		node.DiskRead(p, outDisk) // merge pass reads every run back
		node.Compute(p, e.virtRecs(outRecs)*math.Log2(float64(spillRuns))*job.Costs.SortCPUPerCompare)
		if ratio > 1 { // seal + decode + re-seal of the merge pass
			node.Compute(p, 2*float64(outVirt)*job.Costs.CompressDelay)
		}
	}
	node.DiskWrite(p, outDisk)
	if ratio > 1 {
		node.Compute(p, float64(outVirt)*job.Costs.CompressDelay)
	}
	return &memoEntry{parts: parts, partBytes: partBytes, outDisk: outDisk, spillRuns: spillRuns}
}

// speculativeThreshold is the completed-map fraction that arms backup tasks
// (exec.speculateAfter on the real engine).
const speculativeThreshold = 0.75

// speculativeOverdue is the straggler threshold: an attempt is cloned only
// once it has held its slot longer than this multiple of the mean completed-
// map duration. Healthy tail-wave maps finish before they become overdue, so
// speculation costs nothing on a homogeneous cluster.
const speculativeOverdue = 1.25

// speculator waits for the arming threshold, then watches every unfinished
// map task: a task still running speculativeOverdue× the mean completed-map
// duration after taking its slot gets one backup clone on a node with a free
// map slot (Hadoop's progress-based speculative execution; clones never
// steal a slot from a pending original).
func (e *Engine) speculator(p *sim.Proc, job *JobSpec, input *dfs.File, shuffle *shuffleState, res *Result) {
	shuffle.arm.Wait(p)
	mean := shuffle.durSum / float64(shuffle.doneCount)
	for i, mo := range shuffle.maps {
		if mo.done.Fired() {
			continue
		}
		i, mo := i, mo
		ch := input.Chunks[i]
		// Avoid the node the original attempt actually runs on: under a
		// Workers sub-cluster that is the assigned pool node, not the
		// chunk's primary.
		avoid := ch.Primary()
		if job.Workers > 0 {
			avoid = e.C.Nodes[i%job.Workers]
		}
		p.Kernel().Spawn(fmt.Sprintf("backup-map-%d", i), func(bp *sim.Proc) {
			// An attempt still queued for a slot is cloned right away (an
			// idle slot elsewhere beats waiting); a running one only once
			// overdue.
			if mo.startedAt >= 0 {
				if d := mo.startedAt + speculativeOverdue*mean - bp.Now(); d > 0 {
					bp.Sleep(d)
				}
			}
			if mo.done.Fired() {
				return // finished within its time budget: no clone
			}
			backupNode := e.pickBackupNode(avoid, job.Workers, bp.Now())
			if backupNode == nil {
				return // no idle slot anywhere: cloning would only add load
			}
			res.BackupsLaunched++
			backupNode.MapSlots.Acquire(bp, 1)
			defer backupNode.MapSlots.Release(1)
			if mo.done.Fired() {
				return // original won while we queued for a slot
			}
			tok := e.Col.TaskStart(metrics.StageMap, bp.Now())
			entry := e.runMapAttempt(bp, job, ch, backupNode, false)
			res.SpillRuns += entry.spillRuns
			if e.nodeDead(backupNode, bp.Now()) {
				// The clone died with its worker; the original attempt
				// (re-queued on a survivor if it was also there) wins.
				e.Col.TaskEnd(tok, bp.Now())
				return
			}
			if e.publishMapOutput(bp.Now(), backupNode, shuffle, mo, entry, res) {
				res.BackupsWon++
			}
			e.Col.TaskEnd(tok, bp.Now())
		})
	}
}

// pickBackupNode returns the node (other than avoid, and other than a
// worker already dead at time now) with the most free map slots, ties
// broken by lowest ID. Clones run only on otherwise-idle slots — the real
// scheduler speculates exactly when an idle worker polls with nothing
// pending — so a nil return (every slot busy or queued) means no backup
// launches at all; speculation never steals a slot from a pending original.
// With a Workers sub-cluster, backups stay inside the worker pool.
func (e *Engine) pickBackupNode(avoid *cluster.Node, workers int, now float64) *cluster.Node {
	nodes := e.C.Nodes
	if workers > 0 {
		nodes = nodes[:workers]
	}
	capacity := int64(e.Cfg.Cluster.MapSlots)
	var best *cluster.Node
	var bestFree int64
	for _, n := range nodes {
		if n == avoid || e.nodeDead(n, now) {
			continue
		}
		free := capacity - n.MapSlots.InUse() - int64(n.MapSlots.Waiting())
		if free > bestFree {
			best, bestFree = n, free
		}
	}
	return best
}

// poolNodes returns the nodes the job's tasks may run on: the Workers
// sub-cluster when confined, the whole cluster otherwise.
func (e *Engine) poolNodes(job *JobSpec) []*cluster.Node {
	if job.Workers > 0 {
		return e.C.Nodes[:job.Workers]
	}
	return e.C.Nodes
}

// survivorNode deterministically places task i on a pool node other than
// the killed one.
func (e *Engine) survivorNode(i int, job *JobSpec) *cluster.Node {
	pool := e.poolNodes(job)
	surv := pool[:0:0]
	for _, n := range pool {
		if n != e.killNode {
			surv = append(surv, n)
		}
	}
	return surv[i%len(surv)]
}

// nodeDead reports whether node is the killed worker and the kill has
// already happened at virtual time now.
func (e *Engine) nodeDead(node *cluster.Node, now float64) bool {
	return e.killNode != nil && node == e.killNode && now >= e.killAt
}

// chaosKill is the injected worker death (JobSpec.KillWorkerAt): at the kill
// time every published map output living on the dead node is marked lost and
// re-executed on a survivor; fetchers parked on those outputs resume when the
// replacement publishes (mapOutput.redone). In-flight attempts on the dead
// node notice their own death in mapTask. This is the simulated counterpart
// of the coordinator's workerLost: invalidate routes, requeue maps, stream
// superseding routes to parked reducers.
func (e *Engine) chaosKill(p *sim.Proc, job *JobSpec, input *dfs.File, shuffle *shuffleState, res *Result, jobDone *sim.Event) {
	p.Sleep(e.killAt)
	if jobDone.Fired() {
		return // the job already finished (or failed): nothing to lose
	}
	for i, mo := range shuffle.maps {
		if !mo.done.Fired() || mo.node != e.killNode {
			continue
		}
		i, mo := i, mo
		mo.lost = true
		res.LostMapOutputs++
		res.MapRetries++
		p.Kernel().Spawn(fmt.Sprintf("reexec-map-%d", i), func(rp *sim.Proc) {
			n := e.survivorNode(i, job)
			n.MapSlots.Acquire(rp, 1)
			defer n.MapSlots.Release(1)
			tok := e.Col.TaskStart(metrics.StageMap, rp.Now())
			entry := e.runMapAttempt(rp, job, input.Chunks[i], n, false)
			res.SpillRuns += entry.spillRuns
			// Republish in place: done already fired and ShuffleBytes
			// counted the logical volume, so only the location changes.
			mo.node = n
			mo.parts = entry.parts
			mo.partBytes = entry.partBytes
			mo.lost = false
			mo.redone.Fire()
			e.Col.TaskEnd(tok, rp.Now())
		})
	}
}

// coordDown reports whether the control plane is dark at virtual time now:
// a coordinator kill is configured, the crash has happened, and the
// restarted coordinator has not yet finished replay + re-attach.
func (e *Engine) coordDown(now float64) bool {
	return e.coordUp != nil && now >= e.coordKillAt && !e.coordUp.Fired()
}

// coordKill is the injected coordinator crash (JobSpec.KillCoordinatorAt):
// at the kill time the control plane goes dark; after the fixed restart
// outage plus a per-map re-attach cost for every output journaled before
// the crash, it returns and fires coordUp. Published outputs survive on
// their workers' sealed runs (the data plane outlives the coordinator) and
// are re-attached rather than re-executed; attempts completing during the
// outage notice in mapTask and re-run. This is the simulated counterpart
// of the service journal + sealed-run re-attach recovery (DESIGN §14).
func (e *Engine) coordKill(p *sim.Proc, job *JobSpec, shuffle *shuffleState, res *Result, jobDone *sim.Event) {
	p.Sleep(e.coordKillAt)
	if jobDone.Fired() {
		e.coordUp.Fire() // job already retired: nothing to recover
		return
	}
	res.CoordRestarts++
	attached := 0
	for _, mo := range shuffle.maps {
		if mo.done.Fired() && !mo.lost {
			attached++
		}
	}
	res.ReattachedMaps = attached
	p.Sleep(job.Costs.CoordRestartDelay + float64(attached)*job.Costs.ReattachPerMap)
	e.coordUp.Fire()
}

// publishMapOutput registers a completed map attempt with the shuffle
// service and fires its done event. With speculative execution two attempts
// may race; only the first publisher wins. Reports whether this attempt won.
func (e *Engine) publishMapOutput(now float64, node *cluster.Node, shuffle *shuffleState, mo *mapOutput, entry *memoEntry, res *Result) bool {
	if mo.done.Fired() {
		return false // a backup (or the original) already published
	}
	if now > res.MapOutputsReady {
		res.MapOutputsReady = now
	}
	mo.node = node
	mo.parts = entry.parts
	mo.partBytes = entry.partBytes
	for _, b := range entry.partBytes {
		res.ShuffleBytes += b
	}
	shuffle.doneCount++
	if mo.startedAt >= 0 {
		shuffle.durSum += now - mo.startedAt
	}
	if shuffle.armAt > 0 && shuffle.doneCount >= shuffle.armAt {
		shuffle.arm.Fire()
	}
	if shuffle.doneCount == len(shuffle.maps) {
		shuffle.allDone.Fire()
	}
	mo.done.Fire()
	return true
}

// combinePartition merges same-key records within one map-local partition,
// deterministically (sorted by key), returning the combined records and
// their virtual size. The partition is freshly built by this attempt, so
// sortx.Combine may sort and fold it in place.
func (e *Engine) combinePartition(recs []core.Record, combine func(a, b string) string) ([]core.Record, int64) {
	out := sortx.Combine(recs, combine)
	return out, e.virtRecsBytes(out)
}

// virtRecsBytes sums per-record virtual sizes (truncating per record, the
// same accounting as emitting records one at a time).
func (e *Engine) virtRecsBytes(recs []core.Record) int64 {
	var b int64
	for _, r := range recs {
		b += e.virtBytes(r.Size())
	}
	return b
}

// compressRatio returns the job's sealed-run compression ratio: 1 with the
// codec off, the workload class's calibrated Costs.CompressRatio (or the
// default) otherwise.
func compressRatio(job *JobSpec) float64 {
	if job.Compression == codec.None {
		return 1
	}
	if job.Costs.CompressRatio > 1 {
		return job.Costs.CompressRatio
	}
	return DefaultCosts().CompressRatio
}

// sortCompareCost returns the virtual comparison count of merge-sorting n
// virtual records.
func sortCompareCost(nVirt float64) float64 {
	if nVirt < 2 {
		return 0
	}
	return nVirt * math.Log2(nVirt)
}

// failJob marks the job failed (first failure wins) and fires jobDone.
func failJob(p *sim.Proc, res *Result, jobDone *sim.Event, reason string) {
	if !res.Failed {
		res.Failed = true
		res.FailReason = reason
		res.Completion = p.Now()
	}
	jobDone.Fire()
}
