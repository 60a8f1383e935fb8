package mpexec

import (
	"fmt"
	"slices"

	"blmr/internal/exec"
	"blmr/internal/shuffle"
)

// Routing: where each completed map's sealed runs live, how that reaches the
// reduce tasks, and what happens to it when a worker dies or a restarted
// coordinator re-attaches it. The rule, here as in the journal fold and in
// shuffle.PushSource: the last route installed for a map wins.

// mapRoute is one map task's current sealed-run location: the attempt that
// produced the waves and the worker serving them. A route invalidates
// (valid=false) when its worker dies; the map index re-enters the scheduler
// and a later attempt's completion replaces the route.
type mapRoute struct {
	w       *remoteWorker
	attempt int
	waves   []shuffle.Wave
	valid   bool
}

// jobWorker binds one remoteWorker into one job as an exec.Worker: it tags
// every frame with the job ID and keeps the job's share of the worker's
// spill/dial accounting. All fields beyond the bindings are under c.mu.
type jobWorker struct {
	j *jobRun
	w *remoteWorker

	// The job's spill directory on this worker only grows, and every reply
	// carries its running totals (two tasks of one job overlap there, so a
	// per-task delta would count a neighbour's seals twice): keep the max.
	spilledBytes    int64
	rawSpilledBytes int64
	dials           int64 // max lifetime dial count seen in this job's replies
	dialsBase       int64 // lifetime dial count when the job was admitted
	opens           int64 // max lifetime server-open count seen in this job's replies
	opensBase       int64 // lifetime server-open count when the job was admitted
}

// workerLost reacts to a worker's death, for every admitted job: invalidate
// the routes it served, tell each job's surviving reduce tasks to drop them
// (so fetches park instead of erroring against a dead run-server), and hand
// the affected map indexes back to the job's scheduler for re-execution.
func (c *Coordinator) workerLost(w *remoteWorker) {
	type lostJob struct {
		id       int
		jw       *jobWorker // the dead worker's proxy in this job
		sched    *exec.Scheduler
		affected []int
		pushes   []push
	}
	c.mu.Lock()
	var lost []lostJob
	for _, jr := range c.jobs {
		// The dead worker's own reduce tasks requeue; nothing to re-route.
		lj := lostJob{id: jr.id, sched: jr.sched, pushes: jr.pushTargets(w)}
		for m, rt := range jr.routes {
			if rt.valid && rt.w == w {
				rt.valid = false
				lj.affected = append(lj.affected, m)
			}
		}
		for _, jw := range jr.jws {
			if jw.w == w {
				lj.jw = jw
				break
			}
		}
		lost = append(lost, lj)
	}
	c.mu.Unlock()
	for _, lj := range lost {
		slices.Sort(lj.affected)
		for _, p := range lj.pushes {
			for _, m := range lj.affected {
				_ = p.jw.w.send(msgSegPush, encode(&segPush{lj.id, p.part, mapSegs{mapIndex: m, attempt: -1}}))
			}
		}
		if lj.jw != nil {
			lj.sched.WorkerLost(lj.jw, lj.affected)
		}
	}
}

// push is one in-flight reduce task a routing change must reach.
type push struct {
	jw   *jobWorker
	part int
}

// pushTargets lists the job's in-flight reduce tasks, except those running
// on skip. Callers hold c.mu.
func (jr *jobRun) pushTargets(skip *remoteWorker) []push {
	var pushes []push
	for part, jw := range jr.active {
		if jw.w != skip {
			pushes = append(pushes, push{jw, part})
		}
	}
	return pushes
}

// reattach pre-installs a resumed job's journaled maps whose sealed runs
// survived on a returning worker — matched by worker name and the full
// fileID/CRC set of the map's waves, against the 'A' advertisement captured
// at registration — as valid routes, which reduce tasks then see in their
// 'R' snapshots, and returns their indexes for the scheduler to mark done.
// Misses simply re-execute, and so does a journaled map whose waves do not
// each carry a span per partition. Called before the job is visible to
// anyone else.
func (jr *jobRun) reattach(ws []*remoteWorker, journaled map[int]*journalMap) (preMaps []int) {
	for m, jm := range journaled {
		if m < 0 || m >= jr.nMaps || jr.checkWaves(jm.waves) != nil {
			continue
		}
		w := matchReattach(ws, jr.id, jm)
		if w == nil {
			continue
		}
		waves := make([]shuffle.Wave, len(jm.waves))
		for i, wv := range jm.waves {
			wv.Addr = w.addr
			waves[i] = wv
		}
		jr.routes[m] = &mapRoute{w: w, attempt: jm.attempt, waves: waves, valid: true}
		preMaps = append(preMaps, m)
	}
	slices.Sort(preMaps)
	return preMaps
}

// routedSegs snapshots partition r's segments of every completed map with a
// live route, in (map task, publish order) order — the ordering whose
// stable merge reproduces the single-process engine byte for byte.
// Invalidated maps are omitted: their replacement attempt arrives as a
// supersede push. Callers hold c.mu.
func (jr *jobRun) routedSegs(r int) []mapSegs {
	var routed []mapSegs
	for m := 0; m < jr.nMaps; m++ {
		rt, ok := jr.routes[m]
		if !ok || !rt.valid {
			continue
		}
		routed = append(routed, mapSegs{mapIndex: m, attempt: rt.attempt, segs: shuffle.SegmentsOf(rt.waves, r)})
	}
	return routed
}

// matchReattach finds a live worker that can serve a journaled map's sealed
// waves: same registration name as the worker that sealed them, and every
// wave's file ID present in the worker's advertisement for this job with
// the journaled seal-time CRC. Nil when no worker qualifies (the map
// re-executes).
func matchReattach(ws []*remoteWorker, jobID int, jm *journalMap) *remoteWorker {
	if len(jm.waves) == 0 {
		return nil // nothing to fetch; re-running is cheaper than trusting
	}
	for _, w := range ws {
		if w.isDead() || w.name != jm.worker {
			continue
		}
		for _, sj := range w.sealed {
			if sj.job != jobID {
				continue
			}
			ok := true
			for _, wv := range jm.waves {
				ok = ok && slices.Contains(sj.files, sealedFile{wv.FileID, wv.CRC})
			}
			if ok {
				return w
			}
		}
	}
	return nil
}

// checkWaves requires one span per partition in every wave, which routing
// a map's waves onto each partition (shuffle.SegmentsOf) relies on: a
// shorter wave would drop that partition's records without an error.
func (jr *jobRun) checkWaves(waves []shuffle.Wave) error {
	for i, w := range waves {
		if len(w.Spans) != jr.nParts {
			return fmt.Errorf("wave %d carries %d spans, want one per partition (%d)", i, len(w.Spans), jr.nParts)
		}
	}
	return nil
}

// String implements exec.Worker.
func (jw *jobWorker) String() string { return jw.w.String() }

// RunMap implements exec.Worker: ship the split, collect sealed-run
// metadata, and push the new routes to every in-flight reduce task of this
// job. A completion that lost a speculation race (a valid route from
// another attempt already exists) is discarded; a completion racing the
// worker's own death is returned as worker-lost so the scheduler
// re-executes it somewhere the sealed runs will stay fetchable.
func (jw *jobWorker) RunMap(t exec.MapTask) (exec.MapStats, error) {
	w, jr, c := jw.w, jw.j, jw.w.c
	if w.isDead() {
		// A job admitted after this worker died still lists it (stable pool
		// indexes); fail the dispatch fast so the scheduler routes around it.
		return exec.MapStats{}, w.lost(w.deadErr)
	}
	payload, err := w.call(msgMapTask, encode(&mapTask{jr.id, t}), pendKey{jr.id, msgMapDone, t.Index})
	if err != nil {
		return exec.MapStats{}, err
	}
	var md mapDone
	if err := decode(payload, &md); err != nil {
		return exec.MapStats{}, fmt.Errorf("%s: %w", w, err)
	}
	for i := range md.waves {
		md.waves[i].Addr = w.addr // where a wave lives is not on the wire
	}
	if md.job != jr.id || md.index != t.Index || md.attempt != t.Attempt {
		return exec.MapStats{}, fmt.Errorf("%s: map reply for job %d task %d attempt %d, want %d/%d/%d",
			w, md.job, md.index, md.attempt, jr.id, t.Index, t.Attempt)
	}
	if err := jr.checkWaves(md.waves); err != nil {
		return exec.MapStats{}, fmt.Errorf("%s: map reply for task %d: %w", w, t.Index, err)
	}
	c.mu.Lock()
	if w.isDead() {
		// The worker died in the instant after replying: its run-server is
		// gone, so the output is unusable. Requeue rather than route.
		c.mu.Unlock()
		return exec.MapStats{}, w.lost(fmt.Errorf("died before routing map %d", t.Index))
	}
	jw.spilledBytes = max(jw.spilledBytes, md.spilledBytes)
	jw.rawSpilledBytes = max(jw.rawSpilledBytes, md.rawSpilledBytes)
	noteLifetime(&w.serverOpens, &jw.opens, md.serverOpens)
	if rt, ok := jr.routes[t.Index]; ok && rt.valid {
		// A concurrent attempt won (speculation, or a requeue racing a
		// still-running clone): keep the winner's route, drop this one.
		c.mu.Unlock()
		return exec.MapStats{ShuffleRecords: md.shuffleRecords, Spills: md.spills}, nil
	}
	jr.routes[t.Index] = &mapRoute{w: w, attempt: t.Attempt, waves: md.waves, valid: true}
	// Route the completed map to every reduce task of this job currently in
	// flight — the streamed 'm' metadata that lets reducers start fetching
	// while later maps are still running. Reduce tasks dispatched after
	// this moment get the map in their 'R' snapshot instead (both under
	// c.mu, so each reduce task sees every map exactly once per attempt).
	pushes := jr.pushTargets(nil)
	c.mu.Unlock()
	// Journal the completed attempt (with its wave file IDs and seal-time
	// CRCs — the re-attach identity) before routing it anywhere.
	jr.journal(&journalRecord{kind: jMapDone, id: t.Index, mapDone: &journalMap{attempt: t.Attempt,
		worker: w.name, shuffleRecords: md.shuffleRecords, spills: md.spills, waves: md.waves}})
	for _, p := range pushes {
		route := mapSegs{t.Index, t.Attempt, shuffle.SegmentsOf(md.waves, p.part)}
		_ = p.jw.w.send(msgSegPush, encode(&segPush{jr.id, p.part, route}))
	}
	return exec.MapStats{ShuffleRecords: md.shuffleRecords, Spills: md.spills}, nil
}

// RunReduce implements exec.Worker: ship the partition's routing snapshot
// (later maps arrive as pushes), collect output records.
func (jw *jobWorker) RunReduce(t exec.ReduceTask) (exec.ReduceResult, error) {
	w, jr, c := jw.w, jw.j, jw.w.c
	if w.isDead() {
		return exec.ReduceResult{}, w.lost(w.deadErr)
	}
	c.mu.Lock()
	routed := jr.routedSegs(t.Partition)
	jr.active[t.Partition] = jw
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if jr.active[t.Partition] == jw {
			delete(jr.active, t.Partition)
		}
		c.mu.Unlock()
	}()
	payload, err := w.call(msgReduceTask, encode(&reduceTask{jr.id, t.Partition, jr.nMaps, routed}),
		pendKey{jr.id, msgReduceDone, t.Partition})
	if err != nil {
		return exec.ReduceResult{}, err
	}
	var rd reduceDone
	if err := decode(payload, &rd); err != nil {
		return exec.ReduceResult{}, fmt.Errorf("%s: %w", w, err)
	}
	if rd.job != jr.id || rd.partition != t.Partition {
		return exec.ReduceResult{}, fmt.Errorf("%s: reduce reply for job %d partition %d, want %d/%d",
			w, rd.job, rd.partition, jr.id, t.Partition)
	}
	c.mu.Lock()
	jw.spilledBytes = max(jw.spilledBytes, rd.spilledBytes)
	jw.rawSpilledBytes = max(jw.rawSpilledBytes, rd.rawSpilledBytes)
	noteLifetime(&w.fetchDials, &jw.dials, rd.fetchDials)
	noteLifetime(&w.serverOpens, &jw.opens, rd.serverOpens)
	c.mu.Unlock()
	// Reduce output is final the moment the reply lands (reduce tasks are
	// never speculated); journal the records so a resumed job splices them
	// in instead of re-running the partition.
	jr.journal(&journalRecord{kind: jReduceDone, id: t.Partition, reduce: &rd.res})
	return rd.res, nil
}

// noteLifetime folds a lifetime counter a worker reported on a reply — its
// fetch pool's dials, its run-server's opens — into the worker's and the
// job's monotonic maxima (caller holds c.mu). A job reports the delta from
// the worker's value at its admission (mr.Result.FetchDials, ServerOpens).
func noteLifetime(worker, job *int64, v int64) {
	*worker = max(*worker, v)
	*job = max(*job, v)
}
