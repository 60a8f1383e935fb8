package exec

// The scheduler: assigns map and reduce tasks to workers with per-worker
// slot limits, tracks per-task lifecycle, and propagates the first task
// error — the control plane the monolithic engine's hand-rolled WaitGroups
// grew into. It is two parts. The decision core (schedcore.go) is plain
// state plus Admit / Dispatch / Settle / WorkerLost and knows no lock, clock
// or goroutine. The driver below runs it on real workers: drive applies one
// event to the core under the run lock, asks it what to start, and starts
// exactly that — one goroutine per attempt, alive only while it is inside a
// worker call. (internal/simmr drives the same core in virtual time.)
//
// Map and reduce tasks are dispatched concurrently: pipelined reduce tasks
// overlap the map wave (blocking inside the transport until records
// arrive), barrier reduce tasks block on the transport's map barrier. On
// the in-proc stream transport every partition must be able to run
// concurrently (reduce slots >= reduce tasks), or backpressure from an
// unscheduled partition's full queue could wedge the map wave; run-exchange
// transports have no such constraint, because sealed runs park on disk.
//
// Task failures split into two classes. A genuine task error (user code,
// corrupt data) fails the job: the first error aborts, unstarted tasks are
// skipped, and in-flight tasks are waited out (they unblock via OnFail). A
// WorkerLostError marks the worker dead and requeues the task on the
// surviving workers instead — the MapReduce recovery discipline. Completed
// map tasks whose outputs died with their worker re-enter the queue through
// WorkerLost's resubmission, and once most of the map wave is done the
// scheduler may launch speculative clones of stragglers on idle slots,
// keeping the first completion (duplicate completions are dropped here and
// deduplicated by attempt ID downstream).

import (
	"errors"
	"fmt"
	"slices"
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
// slots). Scheduler.Run calls W; the decision core only names it, so a
// driver that runs attempts itself (the simulator, whose workers are
// cluster nodes) leaves W nil.
type Assignment struct {
	W Worker
	// MapSlots / ReduceSlots bound the worker's concurrent tasks per kind
	// (minimum 1 each).
	MapSlots    int
	ReduceSlots int
}

// name is the worker's display name: its own, or its index when the driver
// supplied no Worker.
func (a Assignment) name(i int) string {
	if a.W == nil {
		return fmt.Sprintf("worker-%d", i)
	}
	return a.W.String()
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

// schedRun is one Run's driver state around the decision core.
type schedRun struct {
	mu sync.Mutex // the run lock: every core call happens under it
	*Core
	start  time.Time
	done   chan struct{} // closed once the job is settled and nothing is running
	closed bool
}

// Run dispatches every task and blocks until all have settled, returning
// the aggregate summary or the first task error. After an error, unstarted
// tasks are skipped and in-flight tasks are waited for (they unblock via
// OnFail), so no goroutines outlive the call.
func (s *Scheduler) Run(maps []MapTask, reduces []ReduceTask) (*Summary, error) {
	if len(s.Workers) == 0 {
		return nil, fmt.Errorf("exec: no workers")
	}
	rn := &schedRun{Core: NewCore(s, maps, reduces), start: time.Now(), done: make(chan struct{})}
	if s.Pool != nil {
		// A dispatch parked at the cross-job cap goes when any sharing job
		// frees a pool slot.
		defer s.Pool.Subscribe(func() { rn.drive(func() {}) })()
	}
	s.mu.Lock()
	s.run = rn
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.run = nil
		s.mu.Unlock()
	}()

	rn.drive(rn.Admit)
	<-rn.done
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if rn.firstErr != nil {
		return nil, rn.firstErr
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
	if rn != nil {
		idx := slices.IndexFunc(s.Workers, func(a Assignment) bool { return a.W == w })
		rn.drive(func() { rn.Core.WorkerLost(idx, resubmitMaps) })
	}
}

// drive is the one dispatch path: apply an event to the core, start what
// the core then decides to start, and close done once the job is settled
// with no attempt out.
func (rn *schedRun) drive(event func()) {
	rn.mu.Lock()
	mapsLeft := rn.left[kMap]
	event()
	launches := rn.Dispatch()
	if mapsLeft > 0 && rn.left[kMap] == 0 {
		rn.sum.MapWall = time.Since(rn.start) // re-stamped after a resubmission
	}
	if rn.running == 0 && rn.Settled() && !rn.closed {
		rn.closed = true
		close(rn.done)
	}
	rn.mu.Unlock()
	for _, l := range launches {
		go rn.attempt(l)
	}
}

// attempt runs one launch on its worker and drives the outcome back in.
func (rn *schedRun) attempt(l Launch) {
	var ms MapStats
	var res ReduceResult
	var err error
	w := rn.s.Workers[l.Worker()].W
	if l.Map() {
		t := rn.maps[l.Pos]
		t.Attempt = l.Attempt
		ms, err = w.RunMap(t)
	} else {
		res, err = w.RunReduce(rn.reduces[l.Pos])
	}
	if rn.s.Pool != nil {
		rn.s.Pool.Release(l.Worker(), l.Map())
	}
	rn.drive(func() { rn.Settle(l, ms, res, err) })
}
