package exec

// The canonical task bodies. RunMapTask and RunReduceTask contain the whole
// per-task data path of the real engine — mapping, map-side combining,
// spill accounting, wave sealing, external merging, stream reduction — so
// the in-process engine (internal/mr) and the multi-process workers
// (internal/mpexec) execute byte-identical task logic and differ only in
// how tasks are dispatched and runs are exchanged.

import (
	"fmt"
	"io"
	"strings"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/shuffle"
	"blmr/internal/sortx"
	"blmr/internal/store"
)

// MapTask is one schedulable map unit: a contiguous slice of job input.
type MapTask struct {
	Index int
	Split []core.Record
	// Attempt distinguishes re-executions and speculative clones of the
	// same map index: the scheduler stamps every dispatch with a fresh,
	// job-unique attempt ID, and downstream consumers (run tags, routing
	// pushes) use it to deduplicate and supersede. Map output bytes must
	// not depend on it: deterministic re-execution is what keeps barrier
	// output byte-identical through churn.
	Attempt int
}

// MapStats reports one completed map task.
type MapStats struct {
	// ShuffleRecords is the task's post-combine intermediate record count.
	ShuffleRecords int64
	// Spills counts sealed spill waves (SpillBytes crossings).
	Spills int
}

// ReduceTask is one schedulable reduce unit: a partition.
type ReduceTask struct {
	Partition int
}

// ReduceResult reports one completed reduce task.
type ReduceResult struct {
	// Output is the task's final records, in order, in chunks from core's
	// record-buffer free list: whoever consumes them hands the chunks back
	// (mr.Assemble, or a worker once it has encoded its reply).
	Output core.Chunks
	// Spills counts partial-result store spill runs (pipelined mode).
	Spills int
	// PeakPartialBytes is the largest partial-result store footprint
	// observed (pipelined mode).
	PeakPartialBytes int64
	// MergePasses counts intermediate merge passes forced by
	// Options.MergeFanIn (barrier mode).
	MergePasses int
	// FetchBytes counts wire bytes fetched from run-servers for this task
	// (compressed sections count their on-the-wire size; 0 off the TCP
	// exchange).
	FetchBytes int64
}

// RunMapTask executes one map task against the sink, picking the stream or
// run discipline from opts, and closes the sink on success.
func RunMapTask(job Job, opts Options, t MapTask, sink shuffle.MapSink) (MapStats, error) {
	if opts.StreamDiscipline() {
		return runMapStream(job, opts, t, sink)
	}
	return runMapRuns(job, opts, t, sink)
}

// mapProbeRecords is how many input records a map task without a spill
// budget maps before it presizes its partitions from their expansion. 256
// records of WordCount text are enough to put the estimate within the
// eighth Extrapolate adds; on the cluster_wc benchmark the probe took the
// job from 0.157 s with doubling alone to 0.124 s (2-core host).
const mapProbeRecords = 256

// runMapRuns is the run-discipline map body: partition, sort (or combine),
// and publish waves — sealing a wave early whenever buffered records cross
// Options.SpillBytes (accounted with store.ApproxRecordBytes, Hadoop's
// io.sort spill), and publishing the under-budget tail as the final wave.
// Waves are key-sorted only where a consumer needs the order: barrier
// reducers k-way-merge runs, and a combiner folds through a sort either
// way. Pipelined reducers consume sections through a stream store that
// imposes no input order, so pipelined maps seal unsorted waves — the
// map-side sort is exactly the stage-barrier work the paper's barrier-less
// mode deletes, and skipping it is where pipelined execution beats barrier
// execution over the run-exchange transports.
//
// Without a spill budget a map task's buffers hold its whole output, and
// their size is learnt from the split itself: the first mapProbeRecords
// input records are mapped, and each partition grows once to its
// extrapolated share (core.PartitionedEmitter.Extrapolate).
func runMapRuns(job Job, opts Options, t MapTask, sink shuffle.MapSink) (MapStats, error) {
	hint := 0
	if opts.SpillBytes <= 0 {
		// Presize each run for an identity-shaped mapper; the probe
		// below resizes it for one that expands (WordCount).
		hint = len(t.Split)/opts.Reducers + 1
	}
	em := core.NewPartitionedEmitter(opts.Reducers, hint)
	var stats MapStats
	// sortPart sorts/combines partition p's buffer in place (stably, so
	// equal keys keep emission order). Pipelined waves skip the sort (see
	// the function comment); combining implies one regardless of mode. One
	// sorter serves every wave and partition of the task, so its scratch is
	// sized once, by the largest partition buffer.
	var sorter sortx.Sorter
	sortPart := func(p int) {
		if job.Combiner != nil {
			em.Parts[p] = sorter.Combine(em.Parts[p], job.Combiner)
		} else if opts.Mode == Barrier {
			sorter.ByKey(em.Parts[p])
		}
	}
	publish := func(sealed bool) error {
		for p := range em.Parts {
			sortPart(p)
			stats.ShuffleRecords += int64(len(em.Parts[p]))
		}
		if err := sink.PublishWave(em.Parts, sealed); err != nil {
			return err
		}
		if sealed {
			for p := range em.Parts {
				em.Parts[p] = em.Parts[p][:0]
			}
			stats.Spills++
		}
		return nil
	}

	var firstErr error
	if opts.SpillBytes > 0 {
		var buffered int64
		acct := core.EmitterFunc(func(k, v string) {
			if firstErr != nil {
				return
			}
			em.Emit(k, v)
			buffered += store.ApproxRecordBytes(k, v)
			if buffered >= opts.SpillBytes {
				if err := publish(true); err != nil {
					firstErr = err // checked between input records
					return
				}
				buffered = 0
			}
		})
		for _, r := range t.Split {
			if firstErr != nil {
				return stats, firstErr
			}
			job.Mapper.Map(r.Key, r.Value, acct)
		}
		if firstErr != nil {
			return stats, firstErr
		}
	} else {
		// Map a probe of the split, then size every partition once from
		// what it expanded to; Emit doubles past that estimate.
		probe := min(mapProbeRecords, len(t.Split))
		for _, r := range t.Split[:probe] {
			job.Mapper.Map(r.Key, r.Value, em)
		}
		em.Extrapolate(probe, len(t.Split))
		for _, r := range t.Split[probe:] {
			job.Mapper.Map(r.Key, r.Value, em)
		}
	}
	if err := publish(false); err != nil {
		return stats, err
	}
	return stats, sink.Close()
}

// runMapStream is the stream-discipline map body (the in-process pipelined
// fast path): emitted records accumulate in per-partition batches — or, with
// a combiner, in per-partition hash accumulators bounded by combineKeys
// distinct keys — and go to the transport one shuffle.BatchSize batch per
// Send, which blocks while the partition's channel is full. A mapper
// therefore holds at most one batch per partition and the channels at most
// shuffle.QueueCap batches each; SpillBytes does not apply here. Backpressure
// cannot wedge: every reduce task holds a slot, so a blocked Send always has
// a live consumer.
func runMapStream(job Job, opts Options, t MapTask, sink shuffle.MapSink) (MapStats, error) {
	var stats MapStats
	var firstErr error
	send := func(p int, b []core.Record) {
		if firstErr != nil {
			return
		}
		stats.ShuffleRecords += int64(len(b))
		if err := sink.Send(p, b); err != nil {
			firstErr = err
		}
	}
	var em core.Emitter
	var flush func(p int) // send partition p's buffered records
	if job.Combiner == nil {
		bufs := make([][]core.Record, opts.Reducers)
		flush = func(p int) {
			if len(bufs[p]) == 0 {
				return
			}
			send(p, bufs[p])
			bufs[p] = nil
		}
		em = core.EmitterFunc(func(k, v string) {
			p := core.Partition(k, opts.Reducers)
			b := bufs[p]
			if b == nil {
				b = sink.Batch()
			}
			b = append(b, core.Record{Key: k, Value: v})
			bufs[p] = b
			if len(b) >= shuffle.BatchSize {
				flush(p)
			}
		})
	} else {
		// Combiner path: per-reducer hash accumulators fold same-key
		// records map-side; a buffer drains only when it reaches
		// combineKeys *distinct* keys (or mapper exit), so skewed streams
		// combine across far more than one batch's worth of records.
		// Draining re-batches to shuffle.BatchSize. Presize modestly and
		// let maps grow: a combineKeys-sized map per (mapper, reducer) pair
		// would cost quadratic memory in core count before any record
		// arrives.
		combufs := make([]map[string]string, opts.Reducers)
		for p := range combufs {
			combufs[p] = make(map[string]string, shuffle.BatchSize)
		}
		flush = func(p int) {
			m := combufs[p]
			if len(m) == 0 {
				return
			}
			b := sink.Batch()
			for k, v := range m {
				b = append(b, core.Record{Key: k, Value: v})
				if len(b) >= shuffle.BatchSize {
					send(p, b)
					b = sink.Batch()
				}
			}
			clear(m)
			if len(b) > 0 {
				send(p, b)
			}
		}
		em = core.EmitterFunc(func(k, v string) {
			p := core.Partition(k, opts.Reducers)
			m := combufs[p]
			if old, ok := m[k]; ok {
				m[k] = job.Combiner(old, v)
				return
			}
			m[k] = v
			if len(m) >= combineKeys {
				flush(p)
			}
		})
	}
	for _, r := range t.Split {
		if firstErr != nil {
			return stats, firstErr
		}
		job.Mapper.Map(r.Key, r.Value, em)
	}
	for p := range opts.Reducers { // mapper-exit flush of partial batches
		flush(p)
	}
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, sink.Close()
}

// RunReduceTask executes one reduce task over the source. scratch (may be
// nil) backs intermediate merge passes and disk-backed partial stores.
func RunReduceTask(job Job, opts Options, t ReduceTask, src shuffle.ReduceSource, scratch *dfs.RunDir) (ReduceResult, error) {
	var res ReduceResult
	var err error
	if opts.Mode == Barrier {
		res, err = runReduceBarrier(job, opts, t, src, scratch)
	} else {
		res, err = runReducePipelined(job, opts, t, src, scratch)
	}
	if fb, ok := src.(interface{ FetchBytes() int64 }); ok {
		res.FetchBytes = fb.FetchBytes()
	}
	return res, err
}

// closeRuns closes every run that owns a resource.
func closeRuns(runs []sortx.Run) {
	for _, r := range runs {
		if c, ok := r.(io.Closer); ok {
			_ = c.Close()
		}
	}
}

// runReduceBarrier waits for the map barrier, folds the partition's runs to
// at most MergeFanIn with intermediate passes, then streams the final
// k-way merge group by group into the grouped reducer. Runs are ordered
// (map task, publish order) with merge ties broken by run index, which
// reproduces the in-memory engine's stable sort exactly; intermediate
// passes merge contiguous prefixes, preserving that order.
func runReduceBarrier(job Job, opts Options, t ReduceTask, src shuffle.ReduceSource, scratch *dfs.RunDir) (ReduceResult, error) {
	var res ReduceResult
	runs, err := src.Runs()
	if err != nil {
		return res, err
	}
	defer func() { closeRuns(runs) }()
	runs, res.MergePasses, err = mergeToFanIn(runs, opts.MergeFanIn, scratch, t.Partition)
	if err != nil {
		return res, err
	}
	merger := sortx.NewMerger(runs)
	sink := core.NewRecordSink()
	gr := job.NewGroup()
	for {
		key, values, ok := merger.NextGroup()
		if !ok {
			break
		}
		// One small copy per group so a reducer that retains its key (most
		// do, into the output) never pins what the key aliases — a whole
		// input line on the in-proc transport, a 72KiB decode-arena chunk
		// on the pooled TCP fetch path. It is the loop's one allocation per
		// group and stays a heap string on purpose: cutting keys from an
		// output-side arena instead would save ~3 % of a sort's CPU, and
		// let a reducer that keeps one key in a thousand pin a 64KiB chunk
		// of other groups' keys per key kept — the retention this copy
		// exists to rule out. values is the merger's buffer, refilled by
		// the next NextGroup (core.GroupReducer's lifetime rule).
		gr.Reduce(strings.Clone(key), values, sink)
	}
	if err := merger.Err(); err != nil {
		return res, err
	}
	if c, ok := gr.(core.Cleanup); ok {
		c.Cleanup(sink)
	}
	res.Output = sink.Chunks()
	return res, nil
}

// mergeToFanIn folds runs down to at most fanIn with intermediate merge
// passes. Each pass merges the first fanIn runs — a contiguous prefix, so
// stable tie-breaking by run index is preserved — into one merged run:
// sealed to scratch when available (bounded memory), in memory otherwise.
// One run encoder is reused across every pass, matching the other sealing
// sites' reuse discipline. Consumed runs are closed eagerly; the returned
// slice replaces runs.
func mergeToFanIn(runs []sortx.Run, fanIn int, scratch *dfs.RunDir, part int) ([]sortx.Run, int, error) {
	passes := 0
	var enc *codec.RunEncoder
	if scratch != nil && len(runs) > fanIn {
		enc = codec.NewRunEncoder(nil, scratch.Compression())
	}
	for len(runs) > fanIn {
		group := runs[:fanIn]
		merged, err := mergeOnce(group, scratch, part, enc)
		closeRuns(group)
		if err != nil {
			return runs, passes, err
		}
		rest := runs[fanIn:]
		runs = append([]sortx.Run{merged}, rest...)
		passes++
	}
	return runs, passes, nil
}

// mergeOnce merges a group of runs into a single run, sealed through enc
// with the scratch directory's codec when disk-backed (enc is non-nil iff
// scratch is).
func mergeOnce(group []sortx.Run, scratch *dfs.RunDir, part int, enc *codec.RunEncoder) (sortx.Run, error) {
	m := sortx.NewMerger(group)
	if scratch == nil {
		recs := m.Drain()
		if err := m.Err(); err != nil {
			return nil, err
		}
		return sortx.NewSliceRun(recs), nil
	}
	w, err := scratch.Create(fmt.Sprintf("merge-r%d", part))
	if err != nil {
		return nil, err
	}
	enc.Reset(w)
	for {
		rec, ok := m.Next()
		if !ok {
			break
		}
		if err := enc.Append(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if err := m.Err(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return nil, err
	}
	scratch.AddRawBytes(enc.RawBytes())
	return shuffle.NewLazyRun(shuffle.Segment{Path: w.Path(), Off: 0, N: w.Bytes()}), nil
}

// runReducePipelined consumes arriving batches through the stream reducer,
// holding partial results in the configured store.
func runReducePipelined(job Job, opts Options, t ReduceTask, src shuffle.ReduceSource, scratch *dfs.RunDir) (ReduceResult, error) {
	var res ReduceResult
	st := NewTaskStore(job, opts, scratch, t.Partition)
	sr := job.NewStream(st)
	sink := core.NewRecordSink()
	for {
		batch, ok, err := src.NextBatch()
		if err != nil {
			return res, err
		}
		if !ok {
			break
		}
		for _, rec := range batch {
			sr.Consume(rec, sink)
		}
		if b := st.ApproxBytes(); b > res.PeakPartialBytes {
			res.PeakPartialBytes = b
		}
		src.Recycle(batch)
	}
	sr.Finish(sink)
	if sp, ok := st.(*store.SpillStore); ok {
		res.Spills = sp.Spills
		if err := sp.Err(); err != nil {
			return res, err
		}
	}
	res.Output = sink.Chunks()
	return res, nil
}

// Fixed bounds of what Options.SpillBytes does not budget: no caller ever
// needed other values, so they are not options.
const (
	spillMergeBudgetBytes = 64 << 20 // SpillMerge store size before it spills to in-memory runs
	kvCacheBytes          = 16 << 20 // KV store cache
	combineKeys           = 4096     // distinct keys a combine buffer holds before it drains
)

// NewTaskStore builds reduce task r's partial-result store. With SpillBytes
// set, in-memory and spill stores become disk-backed spill-merge stores
// budgeted at SpillBytes, so pipelined partial results leave the heap for
// real. The KV store is outside that budget: its cache is bounded, but what
// the cache evicts goes to a heap-resident log, so on this engine it models
// the store's access pattern, not its memory bound.
func NewTaskStore(job Job, opts Options, spillDir *dfs.RunDir, r int) store.Store {
	switch opts.Store.Bounded(opts.SpillBytes) {
	case store.SpillMerge:
		if opts.SpillBytes > 0 {
			return store.NewSpillStore(opts.SpillBytes, job.Merger, nil, spillDir.NewRunSet(fmt.Sprintf("red%d", r)))
		}
		return store.NewSpillStore(spillMergeBudgetBytes, job.Merger, nil, store.MemRuns(opts.Compression))
	case store.KV:
		return store.NewKVStore(kvCacheBytes, nil)
	default:
		return store.NewMemStore()
	}
}
