package mpexec

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/store"
)

// Worker-side jobs and tasks: what one admitted job holds on a worker, its
// open / re-open / abort / close life cycle, and the map and reduce task
// bodies that run under it. worker.go owns the sessions they run in.

// wjob is one admitted job's worker-side state.
type wjob struct {
	id   int
	job  exec.Job
	opts exec.Options
	dir  *dfs.RunDir

	reds    map[int]*shuffle.PushSource // partition -> in-flight reduce source
	early   map[int][]mapSegs           // pushes that raced ahead of their 'R'
	aborted error                       // set by 'F' (or a failed open): fail tasks fast
	tasks   sync.WaitGroup              // in-flight tasks of this job
	sealed  []sealedFile                // run files registered with the run-server (+ seal CRCs)
}

// openJob admits one job: resolve its user code, check its options
// (checkJobOpts) and give it a fresh spill directory sealed with the job's
// codec. A failed open latches the job aborted, so its tasks error back
// instead of wedging. A 'J' for a job this worker already holds is a
// re-open after a coordinator restart: the sealed outputs are kept (they
// are what re-attach recovers) and only the per-session control state
// resets — unless the first open failed, which left nothing to keep: that
// open is simply tried again.
func (w *workerState) openJob(payload []byte) {
	var js jobStart
	if err := decode(payload, &js); err != nil {
		return // corrupt 'J': the job's tasks will error as unknown
	}
	js.opts.SpillDir = w.base.SpillDir // names a local directory; never shipped
	if jb := w.job(js.id); jb != nil && jb.dir != nil {
		// jb.opts stays: a job is resumed under the options it was admitted
		// with, and the old session's map tasks may still be reading them.
		w.failSources(jb, errCoordLost)
		w.mu.Lock()
		jb.aborted = nil // an 'F' belonged to the session that sent it
		w.mu.Unlock()
		return
	}
	jb := &wjob{id: js.id, opts: js.opts,
		reds: make(map[int]*shuffle.PushSource), early: make(map[int][]mapSegs)}
	if job, ok := w.resolve(js.name); !ok {
		jb.aborted = fmt.Errorf("mpexec: no job %q in this worker's registry", js.name)
	} else if err := checkJobOpts(js.opts); err != nil {
		jb.aborted = err
	} else if dir, err := dfs.NewRunDirComp("", js.opts.Compression); err != nil {
		jb.aborted = err
	} else {
		jb.job, jb.dir = job, dir
	}
	w.mu.Lock()
	w.jobs[js.id] = jb
	w.mu.Unlock()
}

// checkJobOpts refuses options no coordinator sends: it normalises before
// encoding a 'J', so a count below its floor or an enum out of range is a
// corrupt or foreign frame, and a task run under it could divide by zero.
// The check is here, not in the wire layout, because the journal's admit
// record shares that layout and holds the options as the user submitted them.
func checkJobOpts(o exec.Options) error {
	for _, c := range []struct {
		field string
		v     int
		ok    bool
	}{
		{"Mappers", o.Mappers, o.Mappers >= 1},
		{"Reducers", o.Reducers, o.Reducers >= 1},
		{"BatchSize", o.BatchSize, o.BatchSize >= 1},
		{"QueueCap", o.QueueCap, o.QueueCap >= 1},
		{"MergeFanIn", o.MergeFanIn, o.MergeFanIn >= 2},
		{"Mode", int(o.Mode), o.Mode == exec.Barrier || o.Mode == exec.Pipelined},
		{"Store", int(o.Store), o.Store >= store.InMemory && o.Store <= store.KV},
		{"Compression", int(o.Compression), o.Compression <= codec.DeltaBlock},
	} {
		if !c.ok {
			return fmt.Errorf("mpexec: job option %s = %d out of range", c.field, c.v)
		}
	}
	return nil
}

// closeJob retires one job: no new tasks can claim it, and once in-flight
// tasks drain its sealed runs are removed from disk.
func (w *workerState) closeJob(id int) {
	w.mu.Lock()
	jb := w.jobs[id]
	delete(w.jobs, id)
	w.mu.Unlock()
	if jb == nil {
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.reapJob(jb, fmt.Errorf("mpexec: job %d closed", id))
	}()
}

// reapJob fails a retired job's straggler sources, waits out its tasks,
// drops the job's run files from the run-server (releasing any handles the
// serving cache still holds, so deleting the files below frees the disk
// space too) and removes its spill directory.
func (w *workerState) reapJob(jb *wjob, reason error) {
	w.failJob(jb, reason)
	jb.tasks.Wait()
	w.mu.Lock()
	sealed := jb.sealed
	jb.sealed = nil
	w.mu.Unlock()
	for _, f := range sealed {
		w.srv.Unregister(f.fileID)
	}
	if jb.dir != nil {
		_ = jb.dir.Close()
	}
}

// job looks up one admitted job (nil when unknown or already closed).
func (w *workerState) job(id int) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

// taskJob claims a task slot on one admitted job: the job cannot be reaped
// until the caller's tasks.Done. nil when the job is unknown/closed.
func (w *workerState) taskJob(id int) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	jb := w.jobs[id]
	if jb != nil {
		jb.tasks.Add(1)
	}
	return jb
}

// failJob aborts one job's in-flight reduce sources and fails its future
// reduce tasks fast (map tasks are local work and run to completion
// harmlessly). Other jobs on this worker are untouched.
func (w *workerState) failJob(jb *wjob, err error) {
	w.mu.Lock()
	if jb.aborted == nil {
		jb.aborted = err
	}
	w.mu.Unlock()
	w.failSources(jb, err)
}

// failSources wakes the job's in-flight reduce tasks with err and forgets
// their sources and any buffered pushes — the control state of one session.
// What outlives a session (spill dir, sealed runs, user code) is untouched.
func (w *workerState) failSources(jb *wjob, err error) {
	w.mu.Lock()
	srcs := slices.Collect(maps.Values(jb.reds))
	jb.reds = make(map[int]*shuffle.PushSource)
	jb.early = make(map[int][]mapSegs)
	w.mu.Unlock()
	for _, s := range srcs {
		s.Fail(err)
	}
}

// allJobs snapshots the admitted jobs.
func (w *workerState) allJobs() []*wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Collect(maps.Values(w.jobs))
}

// offer routes one segment push to its job and partition's in-flight
// source, buffering pushes whose 'R' frame is still in flight (a completed
// map may be routed to a partition in the instant between the coordinator
// registering the reduce task and its 'R' frame hitting the wire).
func (w *workerState) offer(payload []byte) {
	var push segPush
	if err := decode(payload, &push); err != nil {
		// A corrupt push's job is unknowable; fail every job rather than
		// park a reduce task forever on an Offer that will not come.
		for _, jb := range w.allJobs() {
			w.failJob(jb, fmt.Errorf("mpexec: corrupt segment push: %w", err))
		}
		return
	}
	jb := w.job(push.job)
	if jb == nil {
		return // job already closed: the push is moot
	}
	w.mu.Lock()
	src, ok := jb.reds[push.partition]
	if !ok {
		jb.early[push.partition] = append(jb.early[push.partition], push.mapSegs)
	}
	w.mu.Unlock()
	if ok {
		if err := applyPush(src, push.mapSegs); err != nil {
			src.Fail(err)
		}
	}
}

// applyPush feeds one routing push into a reduce source: an invalidation
// (attempt -1, the map's owner died) parks fetches of that map until a
// replacement route arrives; anything else offers the attempt's segments
// (the source ignores a duplicate or lower attempt of a live route, and
// takes any attempt in place of an invalidated one).
func applyPush(src *shuffle.PushSource, ms mapSegs) error {
	if ms.attempt < 0 {
		src.Invalidate(ms.mapIndex)
		return nil
	}
	return src.Offer(ms.mapIndex, ms.attempt, ms.segs)
}

// runMap executes one shipped map task through the canonical task body. The
// sink tag carries the job and attempt so concurrent jobs — and
// re-executions or clones of a map this worker already ran — cannot collide
// in the job's sealed files.
func (w *workerState) runMap(epoch int, payload []byte) {
	defer w.wg.Done()
	var mt mapTask
	err := decode(payload, &mt)
	jobID, t := mt.job, mt.t
	if err != nil {
		w.replyError(epoch, jobID, msgMapDone, t.Index, err)
		return
	}
	jb := w.taskJob(jobID)
	if jb == nil {
		w.replyError(epoch, jobID, msgMapDone, t.Index, fmt.Errorf("unknown job %d", jobID))
		return
	}
	defer jb.tasks.Done()
	w.mu.Lock()
	aborted := jb.aborted
	w.mu.Unlock()
	if aborted != nil {
		w.replyError(epoch, jobID, msgMapDone, t.Index, aborted)
		return
	}
	sink := shuffle.NewRunSink(jb.dir, w.srv, fmt.Sprintf("j%d-m%d-a%d", jobID, t.Index, t.Attempt))
	stats, err := exec.RunMapTask(jb.job, jb.opts, t, sink)
	// The split's headers were decoded into a free-list buffer
	// (mapTask.layout); the finished task holds none of them.
	core.RecycleRecords(t.Split)
	if err != nil {
		w.replyError(epoch, jobID, msgMapDone, t.Index, err)
		return
	}
	w.mu.Lock()
	for _, wave := range sink.Waves() {
		jb.sealed = append(jb.sealed, sealedFile{fileID: wave.FileID, crc: wave.CRC})
	}
	w.mu.Unlock()
	w.reply(epoch, msgMapDone, encode(&mapDone{
		job: jobID, index: t.Index, attempt: t.Attempt,
		shuffleRecords: stats.ShuffleRecords, spills: stats.Spills,
		spilledBytes: jb.dir.SpilledBytes(), rawSpilledBytes: jb.dir.RawSpilledBytes(),
		serverOpens: w.srv.Opens(), waves: sink.Waves(),
	}))
}

// startReduce decodes one routed reduce task, registers its push source
// (replaying any pushes that arrived early), and runs the canonical task
// body in its own goroutine so the control loop keeps routing pushes.
func (w *workerState) startReduce(epoch int, payload []byte) {
	var rt reduceTask
	err := decode(payload, &rt)
	jobID, partition := rt.job, rt.partition
	if err != nil {
		w.replyError(epoch, jobID, msgReduceDone, partition, err)
		return
	}
	jb := w.taskJob(jobID)
	if jb == nil {
		w.replyError(epoch, jobID, msgReduceDone, partition, fmt.Errorf("unknown job %d", jobID))
		return
	}
	if rt.nMaps > jb.opts.Mappers {
		// The count sizes the reduce source. SplitMaps never makes more map
		// tasks than the job's Mappers (normalised before the 'J' frame),
		// so a larger one is corrupt: refuse it before anything is sized.
		jb.tasks.Done()
		w.replyError(epoch, jobID, msgReduceDone, partition,
			fmt.Errorf("reduce task for %d maps, but job %d has at most %d", rt.nMaps, jobID, jb.opts.Mappers))
		return
	}
	src := shuffle.NewPushSource(rt.nMaps, jb.opts.BatchSize, w.pool, jb.opts.MergeFanIn)
	w.mu.Lock()
	aborted := jb.aborted
	buffered := jb.early[partition]
	delete(jb.early, partition)
	jb.reds[partition] = src
	w.mu.Unlock()
	if aborted != nil {
		// The job already failed; don't park a task on pushes that will
		// never come.
		w.unregister(jb, partition, src)
		jb.tasks.Done()
		w.replyError(epoch, jobID, msgReduceDone, partition, aborted)
		return
	}
	for _, ms := range append(rt.routed, buffered...) {
		if err := applyPush(src, ms); err != nil {
			src.Fail(err)
			break
		}
	}
	w.wg.Add(1)
	go w.runReduce(epoch, jb, partition, src)
}

// unregister drops a finished reduce task's source — only if it still owns
// the slot, so a straggler cannot deregister a later task for the same
// partition.
func (w *workerState) unregister(jb *wjob, partition int, src *shuffle.PushSource) {
	w.mu.Lock()
	if jb.reds[partition] == src {
		delete(jb.reds, partition)
	}
	w.mu.Unlock()
}

// runReduce executes one reduce task through the canonical task body,
// fetching segments from the owning workers' run-servers as their routes
// arrive. Callers have already claimed the job's task slot.
func (w *workerState) runReduce(epoch int, jb *wjob, partition int, src *shuffle.PushSource) {
	defer w.wg.Done()
	defer jb.tasks.Done()
	defer w.unregister(jb, partition, src)
	res, err := exec.RunReduceTask(jb.job, jb.opts, exec.ReduceTask{Partition: partition}, src, jb.dir)
	_ = src.Close()
	if err != nil {
		if !errors.Is(err, errCoordLost) {
			w.replyError(epoch, jb.id, msgReduceDone, partition, err)
		}
		return
	}
	reply := encode(&reduceDone{
		job: jb.id, partition: partition, res: res,
		spilledBytes: jb.dir.SpilledBytes(), rawSpilledBytes: jb.dir.RawSpilledBytes(),
		fetchDials: w.pool.Dials(), serverOpens: w.srv.Opens(),
	})
	res.Output.Recycle() // encoded: the reply holds the records' bytes
	w.reply(epoch, msgReduceDone, reply)
}
