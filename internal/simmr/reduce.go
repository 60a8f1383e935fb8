package simmr

import (
	"fmt"

	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/metrics"
	"blmr/internal/sim"
	"blmr/internal/sortx"
	"blmr/internal/store"
)

// barrierReduce is stock Hadoop: fetch every map's partition (bounded
// parallel fetchers), hit the barrier, merge-sort, run the grouped reducer,
// write output.
func (e *Engine) barrierReduce(p *sim.Proc, job *JobSpec, r int, node *cluster.Node, shuffle *shuffleState, res *Result) {
	// --- Shuffle: fetch all partitions, buffering to local disk. ---
	// Sealed-run compression: sections travel — and are buffered — at
	// their compressed size; the decompress CPU is charged where the
	// wall-clock engine pays it, at the consuming merger (the sort phase).
	ratio := compressRatio(job)
	shTok := e.Col.TaskStart(metrics.StageShuffle, p.Now())
	fetchSlots := sim.NewResource(p.Kernel(), fmt.Sprintf("fetch-%d", r), int64(e.Cfg.FetchParallelism))
	fetched := make([][]core.Record, len(shuffle.maps))
	var fetchedVirt, fetchedDisk int64
	peers := make(map[*cluster.Node]bool) // pooled fetch plane: one dial per peer
	wg := sim.NewWaitGroup(p.Kernel(), fmt.Sprintf("fetchers-%d", r), len(shuffle.maps))
	for m := range shuffle.maps {
		m := m
		p.Kernel().Spawn(fmt.Sprintf("fetch-%d-%d", r, m), func(fp *sim.Proc) {
			defer wg.Done()
			mo := shuffle.maps[m]
			e.waitMapOutput(fp, job, shuffle, mo)
			fetchSlots.Acquire(fp, 1)
			defer fetchSlots.Release(1)
			e.guardLost(fp, mo)
			if mo.partBytes[r] > 0 {
				e.chargeRunFetch(fp, job, mo.node, peers)
			}
			wire := int64(float64(mo.partBytes[r]) / ratio)
			e.C.Transfer(fp, mo.node, node, wire)
			node.DiskWrite(fp, wire) // buffer run to local disk
			fetched[m] = mo.parts[r]
			fetchedVirt += mo.partBytes[r]
			fetchedDisk += wire
		})
	}
	wg.Wait(p) // <-- the barrier
	e.Col.TaskEnd(shTok, p.Now())

	// --- Sort: merge the buffered runs into key order. ---
	sortTok := e.Col.TaskStart(metrics.StageSort, p.Now())
	total := 0
	for _, part := range fetched {
		total += len(part)
	}
	all := make([]core.Record, 0, total)
	for _, part := range fetched {
		all = append(all, part...)
	}
	node.DiskRead(p, fetchedDisk) // read runs back for the merge
	if ratio > 1 {                // decompress fetched sections block by block
		node.Compute(p, float64(fetchedVirt)*job.Costs.CompressDelay)
	}
	sortx.ByKey(all)
	node.Compute(p, sortCompareCost(e.virtRecs(len(all)))*job.Costs.SortCPUPerCompare)
	// Sort-phase memory: unbounded, the reducer materializes every fetched
	// partition; with a budget, the fetched runs are streamed through an
	// external k-way merge instead, so the sample is capped at the budget
	// — at the price of one open run (seek) per fetched map output. The
	// comparison and read costs above are the same either way.
	memVirt := fetchedVirt
	if job.SpillBytes > 0 && memVirt > job.SpillBytes {
		memVirt = job.SpillBytes
		p.Sleep(float64(len(shuffle.maps)) * job.Costs.SpillRunDelay)
	}
	if job.Transport != InProcShuffle {
		// The run exchange always merges externally: sort-phase memory is
		// the merge's read buffers (64KiB per open run), never the
		// materialized partition — the wall-clock TCP reducer's behaviour.
		if b := e.virtBytes(int64(len(shuffle.maps)+1) * (64 << 10)); memVirt > b {
			memVirt = b
		}
	}
	e.Col.MemSample(r, p.Now(), memVirt)
	e.Col.TaskEnd(sortTok, p.Now())

	// --- Reduce: one grouped invocation per key. ---
	redTok := e.Col.TaskStart(metrics.StageReduce, p.Now())
	out := core.NewRecordSink()
	gr := job.NewGroup()
	sortx.Group(all, func(key string, values []string) {
		gr.Reduce(key, values, out)
	})
	if c, ok := gr.(core.Cleanup); ok {
		c.Cleanup(out)
	}
	node.Compute(p, e.virtRecs(len(all))*job.Costs.ReduceCPUPerRecord)
	e.Col.TaskEnd(redTok, p.Now())

	e.writeOutput(p, node, out.Chunks(), res)
}

// fetchBatch is one network chunk's worth of records heading for the
// pipelined reducer.
type fetchBatch struct {
	recs []core.Record
}

// kvCacheBytes is the KV store's cache budget in virtual bytes (the 512 MB
// every Figure 9/10 run and cmd/blmr used).
const kvCacheBytes = 512 << 20

// queueCapBatches bounds the pipelined reducer's in-flight record batches
// (backpressure), as exec.Options.QueueCap defaults on the real engine.
const queueCapBatches = 64

// pipelinedReduce is the barrier-less path: one fetch process per mapper
// pulls records as they become available and enqueues them; the reducer
// consumes the FIFO queue record-by-record through a StreamReducer whose
// partial results live in the configured store. Memory is tracked against
// the heap budget; crossing it fails the task, and with it the job (Figure
// 5(a)).
func (e *Engine) pipelinedReduce(p *sim.Proc, job *JobSpec, r int, node *cluster.Node, shuffle *shuffleState, res *Result) error {
	k := p.Kernel()
	ratio := compressRatio(job)
	shTok := e.Col.TaskStart(metrics.StageShuffle, p.Now())
	queue := sim.NewQueue[fetchBatch](k, fmt.Sprintf("rq-%d", r), queueCapBatches)
	wg := sim.NewWaitGroup(k, fmt.Sprintf("pfetchers-%d", r), len(shuffle.maps))
	chunk := e.C.Cfg.TransferChunkBytes
	peers := make(map[*cluster.Node]bool) // pooled fetch plane: one dial per peer
	for m := range shuffle.maps {
		m := m
		k.Spawn(fmt.Sprintf("pfetch-%d-%d", r, m), func(fp *sim.Proc) {
			defer wg.Done()
			mo := shuffle.maps[m]
			e.waitMapOutput(fp, job, shuffle, mo)
			e.guardLost(fp, mo)
			recs := mo.parts[r]
			if len(recs) > 0 {
				e.chargeRunFetch(fp, job, mo.node, peers)
			}
			// Stream the partition chunk by chunk, releasing records to
			// the reducer as each chunk lands. Compressed sections travel
			// compressed and decompress on arrival (reducer-node CPU).
			start := 0
			var batchVirt int64
			for i, rec := range recs {
				batchVirt += e.virtBytes(rec.Size())
				if batchVirt >= chunk || i == len(recs)-1 {
					e.C.Transfer(fp, mo.node, node, int64(float64(batchVirt)/ratio))
					if ratio > 1 {
						node.Compute(fp, float64(batchVirt)*job.Costs.CompressDelay)
					}
					queue.Put(fp, fetchBatch{recs: recs[start : i+1]})
					start = i + 1
					batchVirt = 0
				}
			}
		})
	}
	// Close the queue once every fetcher has drained its mapper.
	k.Spawn(fmt.Sprintf("closer-%d", r), func(cp *sim.Proc) {
		wg.Wait(cp)
		queue.Close()
	})

	st := e.newStore(p, job, node)
	sr := job.NewStream(st)
	out := core.NewRecordSink()
	redTok := e.Col.TaskStart(metrics.StageReduce, p.Now())
	consumed := 0
	nextSnap := job.SnapshotPeriod
	for {
		batch, ok := queue.Get(p)
		if !ok {
			break
		}
		perRec := job.Costs.ReduceCPUPerRecord + job.Costs.StoreCPUPerOp
		node.Compute(p, e.virtRecs(len(batch.recs))*perRec)
		for _, rec := range batch.recs {
			sr.Consume(rec, out)
		}
		consumed += len(batch.recs)
		// ApproxBytes, not MemBytes: the footprint compared against the
		// heap budget includes the spill store's encode scratch, the same
		// accounting the wall-clock engine reports (store.ApproxRecordBytes
		// per entry), so thresholds and reports agree across engines.
		memVirt := e.virtBytes(st.ApproxBytes())
		e.Col.MemSample(r, p.Now(), memVirt)
		if job.SnapshotPeriod > 0 && p.Now() >= nextSnap {
			res.Snapshots = append(res.Snapshots, Snapshot{
				T: p.Now(), Reducer: r, Consumed: consumed,
				Keys: st.Len(), MemVirt: memVirt,
			})
			for p.Now() >= nextSnap {
				nextSnap += job.SnapshotPeriod
			}
		}
		if job.HeapBudget > 0 && memVirt > job.HeapBudget {
			e.Col.TaskEnd(redTok, p.Now())
			e.Col.TaskEnd(shTok, p.Now())
			return fmt.Errorf(
				"reducer %d out of memory: partial results %d MB exceed heap budget %d MB (%s store)",
				r, memVirt>>20, job.HeapBudget>>20, job.Store)
		}
	}
	e.Col.TaskEnd(shTok, p.Now())

	// Finalize: emit partial results (spill merges and KV reads charge
	// their own disk time through the hooks).
	sr.Finish(out)
	recs := out.Chunks()
	node.Compute(p, e.virtRecs(recs.Len())*job.Costs.FinalizeCPUPerRecord)
	if sp, ok := st.(*store.SpillStore); ok {
		res.Spills += sp.Spills
	}
	e.Col.MemSample(r, p.Now(), e.virtBytes(st.ApproxBytes()))
	e.Col.TaskEnd(redTok, p.Now())

	e.writeOutput(p, node, recs, res)
	return nil
}

// waitMapOutput blocks a fetcher until its map's output is available. The
// overlapped control plane (the default) releases each fetch the moment its
// map publishes — fetches overlap still-running maps, the cross-wave
// overlap mpexec's streamed 'm' metadata buys. JobSpec.Staged over the TCP
// exchange restores the stage barrier: no routing table until the whole
// map wave is done, so every fetch waits for the last map.
func (e *Engine) waitMapOutput(fp *sim.Proc, job *JobSpec, shuffle *shuffleState, mo *mapOutput) {
	if job.Staged && job.Transport == TCPRunExchange {
		shuffle.allDone.Wait(fp)
		return
	}
	mo.done.Wait(fp)
}

// guardLost parks a fetcher whose map output died with its worker
// (JobSpec.KillWorkerAt) until the re-executed attempt republishes on a
// survivor — the simulated counterpart of a parked PushSource resolver
// waiting for the coordinator's superseding route.
func (e *Engine) guardLost(fp *sim.Proc, mo *mapOutput) {
	if mo.lost {
		mo.redone.Wait(fp)
	}
}

// chargeRunFetch charges the run exchange's fetch latency for one section
// served by from (nothing for the in-process shuffle). The pooled fetch
// plane dials each peer run-server once per reduce task and pipelines every
// later section request on that connection, so RunFetchDelay is charged
// once per (reduce task, peer).
func (e *Engine) chargeRunFetch(fp *sim.Proc, job *JobSpec, from *cluster.Node, peers map[*cluster.Node]bool) {
	if job.Transport != TCPRunExchange || job.Costs.RunFetchDelay <= 0 || peers[from] {
		return
	}
	peers[from] = true
	fp.Sleep(job.Costs.RunFetchDelay)
}

// newStore builds the per-task partial-result store with hooks that charge
// simulated disk and per-op time on the reducer's node.
func (e *Engine) newStore(p *sim.Proc, job *JobSpec, node *cluster.Node) store.Store {
	hooks := &storeHooks{e: e, p: p, node: node, opDelay: job.Costs.KVOpDelay}
	switch job.Store.Bounded(job.SpillBytes) {
	case store.SpillMerge:
		// SpillBytes overrides SpillThreshold, exactly as the wall-clock
		// engine does (bounded-memory parity with mr.Options.SpillBytes).
		// Merger presence was validated by Engine.Run.
		threshold := int64(1 << 20) // SpillThreshold unset
		if job.SpillBytes > 0 {
			threshold = max(int64(float64(job.SpillBytes)/e.Cfg.ByteScale), 1)
		} else if job.SpillThreshold != 0 {
			threshold = int64(float64(job.SpillThreshold) / e.Cfg.ByteScale)
		}
		return store.NewSpillStore(threshold, job.Merger, hooks, nil)
	case store.KV:
		return store.NewKVStore(int64(kvCacheBytes/e.Cfg.ByteScale), hooks)
	default:
		return store.NewMemStore()
	}
}

// writeOutput writes a reducer's final records to the HDFS, appends them to
// the job result and recycles their chunks.
func (e *Engine) writeOutput(p *sim.Proc, node *cluster.Node, recs core.Chunks, res *Result) {
	outTok := e.Col.TaskStart(metrics.StageOutput, p.Now())
	n := len(res.Output)
	res.Output = recs.AppendTo(res.Output)
	recs.Recycle()
	e.fs.write(p, node, e.virtBytes(core.RecordsSize(res.Output[n:])))
	e.Col.TaskEnd(outTok, p.Now())
}

// storeHooks charges a store's I/O as local disk traffic (its bytes are
// real, so they are scaled to virtual bytes) and each KV-store operation as
// opDelay scaled by RecordScale: the store's observed per-operation
// throughput (the paper measured ~30,000 inserts/s), with each real
// operation standing for RecordScale virtual ones.
type storeHooks struct {
	e       *Engine
	p       *sim.Proc
	node    *cluster.Node
	opDelay float64
}

func (h *storeHooks) Op()               { h.p.Sleep(h.opDelay * h.e.Cfg.RecordScale) }
func (h *storeHooks) DiskWrite(n int64) { h.node.DiskWrite(h.p, h.e.virtBytes(n)) }
func (h *storeHooks) DiskRead(n int64)  { h.node.DiskRead(h.p, h.e.virtBytes(n)) }
