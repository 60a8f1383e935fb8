package simmr

import (
	"fmt"
	"math"

	"blmr/internal/cluster"
	"blmr/internal/codec"
	"blmr/internal/core"
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
	fs  *hdfs
	Cfg Config
	Col *metrics.Collector
}

// NewEngine builds the kernel, cluster and HDFS for one run.
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
		fs:  newHDFS(c, cfg.Replication),
		Cfg: cfg,
		Col: metrics.NewCollector(),
	}
}

// Ingest loads input splits into the HDFS (no simulated time passes).
func (e *Engine) Ingest(name string, splits [][]core.Record) *File {
	return e.fs.ingest(name, splits, e.Cfg.ByteScale)
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
}

// shuffleState tracks map outputs for the reducers.
type shuffleState struct {
	maps      []*mapOutput
	doneCount int
	allDone   *sim.Event // fires when every map output is published — the
	// stage barrier a Staged TCP job's fetchers wait behind
}

func newShuffleState(k *sim.Kernel, nMaps, nReduce int) *shuffleState {
	s := &shuffleState{
		maps:    make([]*mapOutput, nMaps),
		allDone: sim.NewEvent(k, "maps-all-done"),
	}
	for i := range s.maps {
		s.maps[i] = &mapOutput{
			done:      sim.NewEvent(k, fmt.Sprintf("map-%d-done", i)),
			redone:    sim.NewEvent(k, fmt.Sprintf("map-%d-redone", i)),
			parts:     make([][]core.Record, nReduce),
			partBytes: make([]int64, nReduce),
		}
	}
	return s
}

// Run executes job over input. It normalizes spec defaults, starts the job's
// driver (and the injections the spec arms), drives the kernel to
// completion, and returns the result.
func (e *Engine) Run(job JobSpec, input *File) *Result {
	res := e.prepare(&job, input)
	if res.Failed {
		return res
	}
	jr := e.newJobRun(&job, input, res, nil, nil)
	if job.KillWorkerAt > 0 {
		if len(jr.nodes) < 2 {
			// The injection's own limit, not a scheduling decision: it models
			// the dead node's reduce attempts as surviving (DESIGN §11), which
			// means nothing without a survivor to re-run the maps.
			failJob(res, 0, fmt.Sprintf("job %q: killing worker 0 leaves no survivors in a %d-node pool",
				job.Name, len(jr.nodes)))
			return res
		}
		e.K.Spawn("chaos-kill", jr.chaosKill)
	}
	if job.KillCoordinatorAt > 0 {
		jr.coordUp = sim.NewEvent(e.K, "coordinator-restarted")
		e.K.Spawn("coord-kill", jr.coordKill)
	}
	jr.drive(jr.core.Admit)
	e.K.Run()
	jr.mustBeDone()
	e.Col.CloseAll(res.Completion)
	if _, last, ok := e.Col.StageBounds(metrics.StageMap); ok {
		res.MapDone = last
	}
	res.PeakMemVirt = e.Col.PeakMem()
	return res
}

// prepare normalizes one job spec against the engine and validates it,
// returning the job's (possibly already-failed) result shell.
func (e *Engine) prepare(job *JobSpec, input *File) *Result {
	if job.Reducers <= 0 {
		job.Reducers = 1
	}
	if (job.Costs == CostModel{}) {
		job.Costs = DefaultCosts()
	}
	res := &Result{Metrics: e.Col, MapTasks: len(input.chunks)}
	if job.Mode == Pipelined && job.Store.Bounded(job.SpillBytes) == store.SpillMerge && job.Merger == nil {
		// Same contract as mr.Run: a spill-merge store, chosen or imposed by
		// SpillBytes, needs a merger to reunite spilled partials. The
		// simulator reports it as a failed job (its error channel) rather
		// than silently running unbounded.
		res.Failed = true
		res.FailReason = fmt.Sprintf("job %q needs a merger for its spill-merge store", job.Name)
		return res
	}
	if job.Workers > len(e.C.Nodes) {
		job.Workers = len(e.C.Nodes)
	}
	return res
}

// runMapAttempt performs the data work of one map attempt on node: chunk
// read, the real mapper, optional combining, and the local write of the
// partitioned output.
func (e *Engine) runMapAttempt(p *sim.Proc, job *JobSpec, ch *chunk, node *cluster.Node) *memoEntry {
	recs := e.fs.readChunk(p, node, ch)
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

// poolNodes returns the nodes the job's tasks may run on: the Workers
// sub-cluster when confined, the whole cluster otherwise.
func (e *Engine) poolNodes(job *JobSpec) []*cluster.Node {
	if job.Workers > 0 {
		return e.C.Nodes[:job.Workers]
	}
	return e.C.Nodes
}

// publishMapOutput registers a completed map attempt with the shuffle
// service. The first publisher of a map fires its done event; an attempt
// re-executed after the output died with its worker republishes in place
// (done already fired and ShuffleBytes counted the logical volume, so only
// the location changes) and releases the fetchers parked on redone; a losing
// duplicate — the slower of an original and its clone — changes nothing.
func (e *Engine) publishMapOutput(now float64, node *cluster.Node, shuffle *shuffleState, mo *mapOutput, entry *memoEntry, res *Result) {
	first := !mo.done.Fired()
	if !first && !mo.lost {
		return
	}
	mo.node, mo.parts, mo.partBytes, mo.lost = node, entry.parts, entry.partBytes, false
	if !first {
		mo.redone.Fire()
		return
	}
	if now > res.MapOutputsReady {
		res.MapOutputsReady = now
	}
	for _, b := range entry.partBytes {
		res.ShuffleBytes += b
	}
	shuffle.doneCount++
	if shuffle.doneCount == len(shuffle.maps) {
		shuffle.allDone.Fire()
	}
	mo.done.Fire()
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

// failJob marks the job failed at virtual time now (first failure wins).
func failJob(res *Result, now float64, reason string) {
	if !res.Failed {
		res.Failed = true
		res.FailReason = reason
		res.Completion = now
	}
}
