package exec

// The scheduler: assigns map and reduce tasks to workers with per-worker
// slot limits, tracks per-task lifecycle, and propagates the first task
// error — the control plane the monolithic engine's hand-rolled WaitGroups
// grew into. Map and reduce tasks are dispatched concurrently: pipelined
// reduce tasks overlap the map wave (blocking inside the transport until
// records arrive), barrier reduce tasks block on the transport's map
// barrier. On the in-proc stream transport every partition must be able to
// run concurrently (reduce slots >= reduce tasks), or backpressure from an
// unscheduled partition's full queue could wedge the map wave; run-exchange
// transports have no such constraint, because sealed runs park on disk.
//
// Task failures split into two classes. A genuine task error (user code,
// corrupt data) fails the job: the first error aborts, unstarted tasks are
// skipped, and in-flight tasks are waited out (they unblock via OnFail). A
// WorkerLostError marks the worker dead and requeues the task on the
// surviving workers instead — the MapReduce recovery discipline. Completed
// map tasks whose outputs died with their worker re-enter the queue through
// Resubmit, and once most of the map wave is done the scheduler may launch
// speculative clones of stragglers on idle slots, keeping the first
// completion (duplicate completions are dropped here and deduplicated by
// attempt ID downstream).

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Worker executes tasks, one per slot at a time. Implementations: the
// in-process LocalWorker below and internal/mpexec's remote worker proxy.
type Worker interface {
	// String names the worker in error messages.
	String() string
	// RunMap executes one map task to completion.
	RunMap(t MapTask) (MapStats, error)
	// RunReduce executes one reduce task to completion.
	RunReduce(t ReduceTask) (ReduceResult, error)
}

// WorkerLostError classifies a task failure caused by losing the worker
// (process death, closed control connection, missed heartbeats) rather than
// by the task itself. The scheduler reacts by marking the worker dead and
// requeueing the task on survivors instead of failing the job.
type WorkerLostError struct {
	// Worker names the lost worker.
	Worker string
	// Err is the underlying transport error.
	Err error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("worker %s lost: %v", e.Worker, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// IsWorkerLost reports whether err classifies as a lost worker.
func IsWorkerLost(err error) bool {
	var w *WorkerLostError
	return errors.As(err, &w)
}

// Assignment is one worker plus its task-slot budget (Hadoop's map/reduce
// slots; the simulator's cluster.Node has the same shape).
type Assignment struct {
	W Worker
	// MapSlots / ReduceSlots bound the worker's concurrent tasks per kind
	// (minimum 1 each).
	MapSlots    int
	ReduceSlots int
}

// Summary aggregates one scheduled execution.
type Summary struct {
	// MapWall is the wall-clock duration from scheduling start until the
	// last map task returned.
	MapWall time.Duration
	// ShuffleRecords sums the map tasks' post-combine shuffle volume
	// (winning attempts only, so the count matches a churn-free run).
	ShuffleRecords int64
	// MapSpills sums the map tasks' sealed spill waves (winning attempts).
	MapSpills int
	// MapRetries counts map re-executions: worker-lost requeues plus
	// Resubmit calls for outputs lost with their worker.
	MapRetries int
	// ReduceRetries counts reduce tasks requeued after losing their worker.
	ReduceRetries int
	// BackupsLaunched / BackupsWon count speculative map clones dispatched
	// and clones whose attempt won (completed first).
	BackupsLaunched int
	BackupsWon      int
	// ReattachedMaps counts map tasks that never ran because a prior
	// incarnation's completed output was re-attached (Scheduler.PreDoneMaps)
	// — the coordinator-restart recovery path's key metric.
	ReattachedMaps int
	// Reduces holds each reduce task's result, indexed by partition.
	Reduces []ReduceResult
}

// Scheduler drives one job execution over a set of workers.
type Scheduler struct {
	Workers []Assignment
	// OnFail is invoked once, with the first task error, before the
	// scheduler waits out in-flight tasks — wire it to the transport's Fail
	// so tasks blocked in the shuffle wake up and drain.
	OnFail func(error)
	// Staged gates reduce dispatch behind completion of every map task
	// (the multi-process engine's staged mode). Resubmitted maps re-raise
	// the gate until they complete again.
	Staged bool
	// Speculate enables backup attempts of straggler map tasks: once
	// speculateAfter of the map wave is done and no pending maps remain, an
	// idle slot may run a duplicate attempt of a still-running map on a
	// different worker; the first completion wins.
	Speculate bool
	// Policy, when non-nil, routes every pending task to a specific worker
	// (see policy.go): a routed task waits for its worker even while other
	// slots idle, which is what makes placement policies distinguishable.
	// nil keeps the historical work-conserving behavior (any free slot
	// pulls any pending task).
	Policy Policy
	// Pool, when non-nil, is the cross-job slot ledger shared by every
	// concurrent job on this worker pool: a task dispatch additionally
	// claims a pool slot for its worker (parking until one frees when the
	// worker is at its cross-job cap), and policies see kind-split
	// pool-wide load in the worker snapshots. Workers must appear in the
	// same order in every sharing scheduler's Workers list.
	Pool *SlotPool
	// Resident, when non-nil, reports how many sealed map outputs worker w
	// already holds for task t (the locality policy's signal). Called with
	// the run lock held; must not block or call back into the scheduler.
	Resident func(w int, t TaskView) int
	// PreDoneMaps lists map task indexes that are already complete before
	// Run starts — a restarted coordinator re-attached their journaled
	// outputs from a returning worker's disk. They are marked done (and
	// counted in Summary.ReattachedMaps) without dispatching, but stay in
	// the task list so WorkerLost can resubmit them if their outputs die
	// later. Their per-task stats (shuffle records, spills) were produced by
	// the previous incarnation and are not re-counted here.
	PreDoneMaps []int
	// PreDoneReduces maps partition -> the completed result a previous
	// incarnation journaled; those reduce tasks are not dispatched and the
	// journaled results land in Summary.Reduces verbatim.
	PreDoneReduces map[int]ReduceResult
	// FirstAttempt seeds the job-unique attempt counter (default 0). A
	// resumed job sets it past every journaled attempt so re-executions
	// outrank re-attached routes in the reducers' highest-attempt-wins
	// routing tables.
	FirstAttempt int

	mu  sync.Mutex
	run *schedRun
}

// speculateAfter is the completed fraction of the map wave required before
// clones launch (the simulator's default threshold).
const speculateAfter = 0.75

type taskLife int

const (
	tsPending taskLife = iota
	tsRunning
	tsDone
)

type taskState struct {
	life     taskLife
	attempts int
	inflight int // concurrently running attempts (clones)
	cloned   bool
	runners  map[*schedWorker]bool
	// assigned is the worker the placement policy routed this pending task
	// to (nil: any free slot may pull it). Cleared at dispatch.
	assigned *schedWorker
}

type schedWorker struct {
	a    Assignment
	idx  int // position in Scheduler.Workers (and the SlotPool)
	dead bool
	// Policy-visible load accounting: this job's running tasks and routed
	// pending tasks per kind (all under the run lock).
	mapRun, redRun int
	mapQ, redQ     int
}

type schedRun struct {
	s           *Scheduler
	mu          sync.Mutex
	cond        *sync.Cond
	maps        []MapTask
	reduces     []ReduceTask
	byIndex     map[int]int // MapTask.Index -> position in maps
	m           []taskState
	r           []taskState
	mapsLeft    int
	redsLeft    int
	nextAttempt int
	live        int
	maxAttempts int // dispatches one task may take before the job fails
	firstErr    error
	aborted     bool
	sum         *Summary
	start       time.Time
	workers     []*schedWorker
}

// Run dispatches every task and blocks until all have settled, returning
// the aggregate summary or the first task error. After an error, unstarted
// tasks are skipped and in-flight tasks are waited for (they unblock via
// OnFail), so no goroutines outlive the call.
func (s *Scheduler) Run(maps []MapTask, reduces []ReduceTask) (*Summary, error) {
	if len(s.Workers) == 0 {
		return nil, fmt.Errorf("exec: no workers")
	}
	rn := &schedRun{
		s:           s,
		maps:        maps,
		reduces:     reduces,
		byIndex:     make(map[int]int, len(maps)),
		m:           make([]taskState, len(maps)),
		r:           make([]taskState, len(reduces)),
		mapsLeft:    len(maps),
		redsLeft:    len(reduces),
		live:        len(s.Workers),
		maxAttempts: max(4, 2*len(s.Workers)+2),
		sum:         &Summary{Reduces: make([]ReduceResult, len(reduces))},
		start:       time.Now(),
	}
	rn.cond = sync.NewCond(&rn.mu)
	for i := range maps {
		rn.byIndex[maps[i].Index] = i
		rn.m[i].runners = make(map[*schedWorker]bool)
	}
	for i := range reduces {
		rn.r[i].runners = make(map[*schedWorker]bool)
	}
	for i, a := range s.Workers {
		rn.workers = append(rn.workers, &schedWorker{a: a, idx: i})
	}
	rn.nextAttempt = max(0, s.FirstAttempt)
	// Imported pre-done state (coordinator restart): re-attached maps and
	// journaled reduce results settle before any dispatch.
	for _, idx := range s.PreDoneMaps {
		pos, ok := rn.byIndex[idx]
		if !ok || rn.m[pos].life == tsDone {
			continue
		}
		rn.m[pos].life = tsDone
		rn.mapsLeft--
		rn.sum.ReattachedMaps++
	}
	for i := range reduces {
		res, ok := s.PreDoneReduces[reduces[i].Partition]
		if !ok || rn.r[i].life == tsDone {
			continue
		}
		rn.r[i].life = tsDone
		rn.redsLeft--
		rn.sum.Reduces[reduces[i].Partition] = res
	}
	rn.mu.Lock()
	for i := range rn.m {
		if rn.m[i].life == tsPending {
			rn.assignLocked(&rn.m[i], true, maps[i].Index)
		}
	}
	for i := range rn.r {
		if rn.r[i].life == tsPending {
			rn.assignLocked(&rn.r[i], false, reduces[i].Partition)
		}
	}
	rn.mu.Unlock()
	if s.Pool != nil {
		// Wake parked dispatches when any sharing job frees a pool slot.
		unsub := s.Pool.subscribe(func() {
			rn.mu.Lock()
			rn.cond.Broadcast()
			rn.mu.Unlock()
		})
		defer unsub()
	}

	s.mu.Lock()
	s.run = rn
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.run = nil
		s.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for _, w := range rn.workers {
		w := w
		for i := 0; i < max(1, w.a.MapSlots); i++ {
			wg.Add(1)
			go func() { defer wg.Done(); rn.mapLoop(w) }()
		}
		for i := 0; i < max(1, w.a.ReduceSlots); i++ {
			wg.Add(1)
			go func() { defer wg.Done(); rn.reduceLoop(w) }()
		}
	}
	wg.Wait()
	rn.mu.Lock()
	err := rn.firstErr
	rn.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return rn.sum, nil
}

// WorkerLost reports (from outside a task return path — e.g. a coordinator
// noticing a closed control connection) that w is dead, and resubmits the
// completed map tasks whose outputs died with it. Safe to call at any time;
// a no-op when no run is active or the run is already settling.
func (s *Scheduler) WorkerLost(w Worker, resubmitMaps []int) {
	s.mu.Lock()
	rn := s.run
	s.mu.Unlock()
	if rn == nil {
		return
	}
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for _, sw := range rn.workers {
		if sw.a.W == w {
			rn.workerDeadLocked(sw)
			break
		}
	}
	if rn.aborted || rn.redsLeft == 0 {
		return // settling: survivors already fetched everything they need
	}
	for _, idx := range resubmitMaps {
		pos, ok := rn.byIndex[idx]
		if !ok {
			continue
		}
		st := &rn.m[pos]
		if st.life != tsDone {
			continue // pending or in flight already; that attempt re-routes
		}
		if st.inflight > 0 {
			st.life = tsRunning // a racing clone is still out; let it win
		} else {
			st.life = tsPending
			rn.assignLocked(st, true, idx)
		}
		rn.mapsLeft++
		rn.sum.MapRetries++
	}
	rn.cond.Broadcast()
}

// assignLocked routes one pending task through the placement policy,
// replacing any previous routing. With no policy the task stays unrouted
// (any free slot pulls it).
func (rn *schedRun) assignLocked(st *taskState, isMap bool, index int) {
	rn.unassignLocked(st, isMap)
	if rn.s.Policy == nil {
		return
	}
	t := TaskView{Map: isMap, Index: index}
	snaps, cand := rn.snapshotsLocked(t)
	if len(cand) == 0 {
		return
	}
	k := rn.s.Policy.Pick(t, snaps)
	if k < 0 || k >= len(cand) {
		return // no preference or a bogus pick: fall back to any-slot
	}
	st.assigned = cand[k]
	if isMap {
		cand[k].mapQ++
	} else {
		cand[k].redQ++
	}
}

func (rn *schedRun) unassignLocked(st *taskState, isMap bool) {
	if st.assigned == nil {
		return
	}
	if isMap {
		st.assigned.mapQ--
	} else {
		st.assigned.redQ--
	}
	st.assigned = nil
}

// snapshotsLocked builds the policy's view of every live worker, in stable
// ID order, alongside the matching schedWorkers.
func (rn *schedRun) snapshotsLocked(t TaskView) ([]WorkerSnapshot, []*schedWorker) {
	var snaps []WorkerSnapshot
	var cand []*schedWorker
	for i, sw := range rn.workers {
		if sw.dead {
			continue
		}
		s := WorkerSnapshot{
			ID: i, Name: sw.a.W.String(),
			MapSlots: max(1, sw.a.MapSlots), ReduceSlots: max(1, sw.a.ReduceSlots),
			MapRunning: sw.mapRun, ReduceRunning: sw.redRun,
			MapQueued: sw.mapQ, ReduceQueued: sw.redQ,
			PoolMapRunning: sw.mapRun, PoolReduceRunning: sw.redRun,
		}
		if rn.s.Pool != nil {
			s.PoolMapRunning = rn.s.Pool.RunningKind(i, true)
			s.PoolReduceRunning = rn.s.Pool.RunningKind(i, false)
		}
		if rn.s.Resident != nil {
			s.ResidentRuns = rn.s.Resident(i, t)
		}
		snaps = append(snaps, s)
		cand = append(cand, sw)
	}
	return snaps, cand
}

// acquirePoolLocked claims a cross-job pool slot for a dispatch on w (a
// no-op without a pool). On false the caller parks; a Release broadcast
// wakes it.
func (rn *schedRun) acquirePoolLocked(w *schedWorker, isMap bool) bool {
	if rn.s.Pool == nil {
		return true
	}
	return rn.s.Pool.TryAcquire(w.idx, isMap)
}

func (rn *schedRun) releasePool(w *schedWorker, isMap bool) {
	if rn.s.Pool != nil {
		rn.s.Pool.Release(w.idx, isMap)
	}
}

// done reports (locked) whether slots should exit.
func (rn *schedRun) done() bool {
	return rn.aborted || (rn.mapsLeft == 0 && rn.redsLeft == 0)
}

func (rn *schedRun) failLocked(err error) {
	if rn.firstErr != nil {
		return
	}
	rn.firstErr = err
	rn.aborted = true
	if rn.s.OnFail != nil {
		// Called under the run lock: OnFail must not call back into the
		// scheduler (transports' Fail does not).
		rn.s.OnFail(err)
	}
	rn.cond.Broadcast()
}

func (rn *schedRun) workerDeadLocked(w *schedWorker) {
	if w.dead {
		return
	}
	w.dead = true
	rn.live--
	// Re-route the pending tasks parked on the dead worker: through the
	// policy when one is set, otherwise back to the any-slot pool.
	for i := range rn.m {
		if st := &rn.m[i]; st.assigned == w && st.life == tsPending {
			rn.assignLocked(st, true, rn.maps[i].Index)
		}
	}
	for i := range rn.r {
		if st := &rn.r[i]; st.assigned == w && st.life == tsPending {
			rn.assignLocked(st, false, rn.reduces[i].Partition)
		}
	}
	rn.cond.Broadcast()
}

// pickMap returns a map position to dispatch on w, with clone=true for a
// speculative backup attempt, or -1 when nothing is runnable.
func (rn *schedRun) pickMap(w *schedWorker) (pos int, clone bool) {
	if rn.mapsLeft == 0 {
		return -1, false
	}
	for i := range rn.m {
		st := &rn.m[i]
		if st.life == tsPending && (st.assigned == nil || st.assigned == w) {
			return i, false
		}
	}
	if !rn.s.Speculate || rn.live < 2 {
		return -1, false
	}
	done := len(rn.maps) - rn.mapsLeft
	if float64(done) < speculateAfter*float64(len(rn.maps)) {
		return -1, false
	}
	for i := range rn.m {
		st := &rn.m[i]
		if st.life == tsRunning && st.inflight > 0 && !st.cloned &&
			!st.runners[w] && st.attempts < rn.maxAttempts {
			return i, true
		}
	}
	return -1, false
}

func (rn *schedRun) mapLoop(w *schedWorker) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for {
		if rn.done() || w.dead {
			return
		}
		pos, clone := rn.pickMap(w)
		if pos < 0 {
			rn.cond.Wait()
			continue
		}
		if !rn.acquirePoolLocked(w, true) {
			rn.cond.Wait() // worker at its cross-job cap; Release wakes us
			continue
		}
		st := &rn.m[pos]
		rn.unassignLocked(st, true)
		st.life = tsRunning
		st.attempts++
		st.inflight++
		st.runners[w] = true
		w.mapRun++
		if clone {
			st.cloned = true
			rn.sum.BackupsLaunched++
		}
		t := rn.maps[pos]
		t.Attempt = rn.nextAttempt
		rn.nextAttempt++
		rn.mu.Unlock()
		stats, err := w.a.W.RunMap(t)
		rn.releasePool(w, true)
		rn.mu.Lock()
		st = &rn.m[pos]
		st.inflight--
		w.mapRun--
		delete(st.runners, w)
		if err != nil {
			rn.taskError(w, st, err, func() error {
				return fmt.Errorf("map task %d on %s: %w", t.Index, w.a.W, err)
			}, true, t.Index)
			continue
		}
		if st.life != tsDone {
			st.life = tsDone
			rn.mapsLeft--
			rn.sum.ShuffleRecords += stats.ShuffleRecords
			rn.sum.MapSpills += stats.Spills
			if clone {
				rn.sum.BackupsWon++
			}
			if rn.mapsLeft == 0 {
				rn.sum.MapWall = time.Since(rn.start)
			}
			rn.cond.Broadcast()
		}
		// A losing duplicate attempt (speculation, or a requeue that raced
		// a still-running clone) is dropped: stats count the winner only.
	}
}

func (rn *schedRun) reduceLoop(w *schedWorker) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for {
		if rn.done() || w.dead {
			return
		}
		pos := -1
		if !(rn.s.Staged && rn.mapsLeft > 0) {
			for i := range rn.r {
				st := &rn.r[i]
				if st.life == tsPending && (st.assigned == nil || st.assigned == w) {
					pos = i
					break
				}
			}
		}
		if pos < 0 {
			rn.cond.Wait()
			continue
		}
		rn.acquirePoolLocked(w, false) // counted for the policies, never capped
		st := &rn.r[pos]
		rn.unassignLocked(st, false)
		st.life = tsRunning
		st.attempts++
		st.inflight++
		st.runners[w] = true
		w.redRun++
		t := rn.reduces[pos]
		rn.mu.Unlock()
		res, err := w.a.W.RunReduce(t)
		rn.releasePool(w, false)
		rn.mu.Lock()
		st = &rn.r[pos]
		st.inflight--
		w.redRun--
		delete(st.runners, w)
		if err != nil {
			rn.taskError(w, st, err, func() error {
				return fmt.Errorf("reduce task %d on %s: %w", t.Partition, w.a.W, err)
			}, false, t.Partition)
			continue
		}
		if st.life != tsDone {
			st.life = tsDone
			rn.redsLeft--
			rn.sum.Reduces[t.Partition] = res
			rn.cond.Broadcast()
		}
	}
}

// taskError settles one failed attempt (locked): a genuine task error fails
// the job; a lost worker is retired and the task requeued on survivors.
func (rn *schedRun) taskError(w *schedWorker, st *taskState, err error, wrap func() error, isMap bool, index int) {
	if !IsWorkerLost(err) {
		rn.failLocked(wrap())
		return
	}
	rn.workerDeadLocked(w)
	if st.life == tsDone || rn.aborted {
		return
	}
	if st.attempts >= rn.maxAttempts {
		rn.failLocked(fmt.Errorf("%d attempts exhausted: %w", st.attempts, wrap()))
		return
	}
	if rn.live == 0 {
		rn.failLocked(fmt.Errorf("no live workers left: %w", wrap()))
		return
	}
	if st.inflight == 0 {
		st.life = tsPending
		rn.assignLocked(st, isMap, index)
		if isMap {
			rn.sum.MapRetries++
		} else {
			rn.sum.ReduceRetries++
		}
	}
	rn.cond.Broadcast()
}
