package exec

// The scheduler's decision core: plain state plus NewCore / Admit / Dispatch /
// Settle / WorkerLost. Nothing here takes a lock, reads a clock, blocks or
// starts a goroutine (this file imports neither sync nor time), so every
// decision the scheduler makes — which worker gets which task, what a failed
// attempt or a lost worker requeues, when a clone launches — is a function of
// the events applied so far. A driver applies one event at a time and starts
// exactly the attempts Dispatch returned. There are two: scheduler.go runs
// the core on wall-clock goroutines under the run lock, and internal/simmr
// runs the same core from sim.Procs in virtual time. explore_test.go applies
// seeded event orders with no goroutine at all. The core never calls a
// worker: it knows one by its index in Scheduler.Workers and by a display
// name.

import (
	"fmt"
	"slices"
)

// kind indexes everything the core keeps once per task kind.
type kind int

const (
	kMap kind = iota
	kReduce
)

func (k kind) String() string {
	if k == kMap {
		return "map"
	}
	return "reduce"
}

// speculateAfter is the completed fraction of the map wave required before
// clones launch.
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
	cloned   bool
	runners  []*schedWorker // workers running an attempt right now (original, clone)
	// assigned is the worker the placement policy routed this pending task
	// to (nil: any free slot may take it). Cleared at dispatch.
	assigned *schedWorker
	// counted is what this map's winning attempt added to the summary. A
	// resubmission takes it back out, so a re-executed map counts once.
	counted MapStats
}

type schedWorker struct {
	idx  int // position in Scheduler.Workers (and the SlotPool)
	dead bool
	// Per kind: this job's slot budget, its running attempts, and its
	// pending tasks routed here (the policy-visible load).
	slots, running, queued [2]int
}

// Launch is one attempt the core has decided to start. Only Dispatch makes
// one; the driver hands it back to Settle with the attempt's outcome.
type Launch struct {
	w *schedWorker
	k kind
	// Pos is the task's position in the maps (or reduces) the core was built
	// with.
	Pos int
	// Attempt is the job-unique attempt ID (map tasks).
	Attempt int
	// Clone marks a speculative backup of a map still running elsewhere.
	Clone bool
}

// Worker is the index in Scheduler.Workers of the worker the attempt runs on.
func (l Launch) Worker() int { return l.w.idx }

// Map reports whether the attempt is of a map task (false: a reduce task).
func (l Launch) Map() bool { return l.k == kMap }

// Core is the decision state of one job execution.
type Core struct {
	s           *Scheduler
	maps        []MapTask
	reduces     []ReduceTask
	byIndex     map[int]int // MapTask.Index -> position in maps
	tasks       [2][]taskState
	left        [2]int // tasks not yet done
	running     int    // attempts out, both kinds
	nextAttempt int
	live        int
	maxAttempts int // dispatches one task may take before the job fails
	firstErr    error
	sum         *Summary
	workers     []*schedWorker
}

// NewCore builds the state of one run, imported pre-done state (coordinator
// restart) included: re-attached maps and journaled reduce results are done
// before anything dispatches.
func NewCore(s *Scheduler, maps []MapTask, reduces []ReduceTask) *Core {
	c := &Core{
		s:           s,
		maps:        maps,
		reduces:     reduces,
		byIndex:     make(map[int]int, len(maps)),
		tasks:       [2][]taskState{make([]taskState, len(maps)), make([]taskState, len(reduces))},
		left:        [2]int{len(maps), len(reduces)},
		nextAttempt: max(0, s.FirstAttempt),
		live:        len(s.Workers),
		maxAttempts: max(4, 2*len(s.Workers)+2),
		sum:         &Summary{Reduces: make([]ReduceResult, len(reduces))},
	}
	for i := range maps {
		c.byIndex[maps[i].Index] = i
	}
	for i, a := range s.Workers {
		c.workers = append(c.workers, &schedWorker{idx: i,
			slots: [2]int{max(1, a.MapSlots), max(1, a.ReduceSlots)}})
	}
	for _, idx := range s.PreDoneMaps {
		if pos, ok := c.byIndex[idx]; ok && c.tasks[kMap][pos].life != tsDone {
			c.tasks[kMap][pos].life = tsDone
			c.left[kMap]--
			c.sum.ReattachedMaps++
		}
	}
	for i, t := range reduces {
		if res, ok := s.PreDoneReduces[t.Partition]; ok {
			c.tasks[kReduce][i].life = tsDone
			c.left[kReduce]--
			c.sum.Reduces[t.Partition] = res
		}
	}
	return c
}

// Admit routes every pending task through the placement policy.
func (c *Core) Admit() {
	for k := range c.tasks {
		for i := range c.tasks[k] {
			if c.tasks[k][i].life == tsPending {
				c.assign(kind(k), i)
			}
		}
	}
}

// Settled reports whether nothing is left to dispatch: the job failed or
// every task is done.
func (c *Core) Settled() bool {
	return c.firstErr != nil || c.left[kMap]+c.left[kReduce] == 0
}

// Err is the error that failed the job, nil while it has not failed.
func (c *Core) Err() error { return c.firstErr }

// Summary is the run's aggregate so far (complete once Settled with no error).
func (c *Core) Summary() *Summary { return c.sum }

// name is a worker's display name, asked of its Assignment when needed.
func (c *Core) name(w *schedWorker) string { return c.s.Workers[w.idx].name(w.idx) }

// index is the task's public name: map index or reduce partition.
func (c *Core) index(k kind, pos int) int {
	if k == kMap {
		return c.maps[pos].Index
	}
	return c.reduces[pos].Partition
}

// assign routes one pending task through the placement policy, replacing
// any previous routing. With no policy, no live worker, or a pick outside
// the snapshot list, the task stays unrouted (any free slot takes it).
func (c *Core) assign(k kind, pos int) {
	st := &c.tasks[k][pos]
	c.unassign(st, k)
	if c.s.Policy == nil {
		return
	}
	t := TaskView{Map: k == kMap, Index: c.index(k, pos)}
	snaps, cand := c.snapshots(t)
	if len(cand) == 0 {
		return
	}
	if n := c.s.Policy.Pick(t, snaps); n >= 0 && n < len(cand) {
		st.assigned = cand[n]
		cand[n].queued[k]++
	}
}

func (c *Core) unassign(st *taskState, k kind) {
	if st.assigned != nil {
		st.assigned.queued[k]--
		st.assigned = nil
	}
}

// snapshots builds the policy's view of every live worker, in stable ID
// order, alongside the matching schedWorkers.
func (c *Core) snapshots(t TaskView) ([]WorkerSnapshot, []*schedWorker) {
	var snaps []WorkerSnapshot
	var cand []*schedWorker
	for i, w := range c.workers {
		if w.dead {
			continue
		}
		s := WorkerSnapshot{
			ID: i, Name: c.name(w),
			MapSlots: w.slots[kMap], ReduceSlots: w.slots[kReduce],
			MapRunning: w.running[kMap], ReduceRunning: w.running[kReduce],
			MapQueued: w.queued[kMap], ReduceQueued: w.queued[kReduce],
			PoolMapRunning: c.load(w, kMap), PoolReduceRunning: c.load(w, kReduce),
		}
		if c.s.Resident != nil {
			s.ResidentRuns = c.s.Resident(i, t)
		}
		snaps = append(snaps, s)
		cand = append(cand, w)
	}
	return snaps, cand
}

// load is how many tasks of one kind w runs: across every job sharing the
// pool when there is one, this job's own otherwise.
func (c *Core) load(w *schedWorker, k kind) int {
	if c.s.Pool != nil {
		return c.s.Pool.RunningKind(w.idx, k == kMap)
	}
	return w.running[k]
}

func (c *Core) fail(err error) {
	if c.firstErr != nil {
		return
	}
	c.firstErr = err
	if c.s.OnFail != nil {
		// Called under the run lock: OnFail must not call back into the
		// scheduler (transports' Fail does not).
		c.s.OnFail(err)
	}
}

func (c *Core) workerDead(w *schedWorker) {
	if w.dead {
		return
	}
	w.dead = true
	c.live--
	// Re-route the pending tasks parked on the dead worker: through the
	// policy when one is set, otherwise back to any free slot.
	for k := range c.tasks {
		for i := range c.tasks[k] {
			if st := &c.tasks[k][i]; st.assigned == w && st.life == tsPending {
				c.assign(kind(k), i)
			}
		}
	}
}

// WorkerLost retires the worker at that index of Scheduler.Workers and
// resubmits the completed maps whose outputs died with it (the body of
// Scheduler.WorkerLost). An index outside the list retires nobody: the
// outputs are lost, their worker is not.
func (c *Core) WorkerLost(worker int, resubmitMaps []int) {
	if worker >= 0 && worker < len(c.workers) {
		c.workerDead(c.workers[worker])
	}
	if c.firstErr != nil || c.left[kReduce] == 0 {
		return // settling: survivors already fetched everything they need
	}
	for _, idx := range resubmitMaps {
		pos, ok := c.byIndex[idx]
		if !ok || c.tasks[kMap][pos].life != tsDone {
			continue // pending or in flight already; that attempt re-routes
		}
		st := &c.tasks[kMap][pos]
		if len(st.runners) > 0 {
			st.life = tsRunning // a racing clone is still out; let it win
		} else {
			st.life = tsPending
			c.assign(kMap, pos)
		}
		c.left[kMap]++
		c.sum.MapRetries++
		c.sum.ShuffleRecords -= st.counted.ShuffleRecords
		c.sum.MapSpills -= st.counted.Spills
		st.counted = MapStats{}
	}
}

// pick returns the position of a task of kind k to start on w, with
// clone=true for a speculative backup attempt, or -1 when w has nothing
// runnable: reduce tasks wait out a staged run's map wave, a routed task
// waits for its own worker, and a map is cloned once, on a worker not
// already running it, after speculateAfter of the wave is done.
func (c *Core) pick(w *schedWorker, k kind) (pos int, clone bool) {
	if c.left[k] == 0 || (k == kReduce && c.s.Staged && c.left[kMap] > 0) {
		return -1, false
	}
	for i := range c.tasks[k] {
		st := &c.tasks[k][i]
		if st.life == tsPending && (st.assigned == nil || st.assigned == w) {
			return i, false
		}
	}
	if k != kMap || !c.s.Speculate || c.live < 2 ||
		float64(len(c.maps)-c.left[kMap]) < speculateAfter*float64(len(c.maps)) {
		return -1, false
	}
	for i := range c.tasks[kMap] {
		st := &c.tasks[kMap][i]
		if st.life == tsRunning && len(st.runners) > 0 && !st.cloned &&
			!slices.Contains(st.runners, w) && st.attempts < c.maxAttempts {
			return i, true
		}
	}
	return -1, false
}

// Dispatch hands runnable tasks to free slots until neither is left and
// returns the attempts to start. Among the live workers with a free slot
// and something runnable, the one running the fewest tasks of that kind
// goes first (ties to the lower index): a scan in index order would fill
// worker 0 before touching worker 1 in every job (DESIGN.md §7).
func (c *Core) Dispatch() []Launch {
	if !c.Settled() && c.live == 0 && c.running == 0 {
		c.fail(fmt.Errorf("no live workers left: %d map and %d reduce tasks unfinished", c.left[kMap], c.left[kReduce]))
	}
	var out []Launch
	for k := kMap; k <= kReduce && c.firstErr == nil; k++ {
		capped := make([]bool, len(c.workers)) // at the cross-job cap
		for {
			var best *schedWorker
			var bestLoad, pos int
			var clone bool
			for _, w := range c.workers {
				if w.dead || capped[w.idx] || w.running[k] >= w.slots[k] {
					continue
				}
				load := c.load(w, k)
				if best != nil && load >= bestLoad {
					continue
				}
				if p, cl := c.pick(w, k); p >= 0 {
					best, bestLoad, pos, clone = w, load, p, cl
				}
			}
			if best == nil {
				break
			}
			if c.s.Pool != nil && !c.s.Pool.TryAcquire(best.idx, k == kMap) {
				capped[best.idx] = true // parked until any sharing job releases
				continue
			}
			out = append(out, c.start(best, k, pos, clone))
		}
	}
	return out
}

func (c *Core) start(w *schedWorker, k kind, pos int, clone bool) Launch {
	st := &c.tasks[k][pos]
	c.unassign(st, k)
	st.life = tsRunning
	st.attempts++
	st.runners = append(st.runners, w)
	w.running[k]++
	c.running++
	l := Launch{w: w, k: k, Pos: pos, Clone: clone}
	if k == kMap {
		l.Attempt = c.nextAttempt
		c.nextAttempt++
	}
	if clone {
		st.cloned = true
		c.sum.BackupsLaunched++
	}
	return l
}

// Settle takes one attempt's outcome. The first completion of a task wins
// and fills the summary; a losing duplicate (speculation, or a requeue that
// raced a still-running clone) is dropped, so stats count the winner only.
// A genuine task error fails the job; a lost worker is retired and the task
// requeued on the survivors.
func (c *Core) Settle(l Launch, ms MapStats, res ReduceResult, err error) {
	st := &c.tasks[l.k][l.Pos]
	st.runners = slices.DeleteFunc(st.runners, func(w *schedWorker) bool { return w == l.w })
	l.w.running[l.k]--
	c.running--
	switch {
	case err != nil:
		c.taskError(l, st, fmt.Errorf("%s task %d on %s: %w", l.k, c.index(l.k, l.Pos), c.name(l.w), err))
	case st.life == tsDone: // a losing duplicate: dropped
	case l.k == kMap:
		st.life, st.counted = tsDone, ms
		c.left[kMap]--
		c.sum.ShuffleRecords += ms.ShuffleRecords
		c.sum.MapSpills += ms.Spills
		if l.Clone {
			c.sum.BackupsWon++
		}
	default:
		st.life = tsDone
		c.left[kReduce]--
		c.sum.Reduces[c.reduces[l.Pos].Partition] = res
	}
}

func (c *Core) taskError(l Launch, st *taskState, err error) {
	if !IsWorkerLost(err) {
		c.fail(err)
		return
	}
	c.workerDead(l.w)
	switch {
	case st.life == tsDone || c.firstErr != nil:
	case st.attempts >= c.maxAttempts:
		c.fail(fmt.Errorf("%d attempts exhausted: %w", st.attempts, err))
	case c.live == 0:
		c.fail(fmt.Errorf("no live workers left: %w", err))
	case len(st.runners) == 0:
		st.life = tsPending
		c.assign(l.k, l.Pos)
		if l.k == kMap {
			c.sum.MapRetries++
		} else {
			c.sum.ReduceRetries++
		}
	}
}
