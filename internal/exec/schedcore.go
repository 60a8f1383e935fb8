package exec

// The scheduler's decision core: plain state plus admit / dispatch / settle /
// workerLost. Nothing here takes a lock, reads a clock, blocks or starts a
// goroutine (this file imports neither sync nor time), so every decision the
// scheduler makes — which worker gets which task, what a failed attempt or a
// lost worker requeues, when a clone launches — is a function of the events
// applied so far. The driver in scheduler.go applies one event at a time
// under the run lock and starts exactly the attempts dispatch returned;
// explore_test.go applies seeded event orders with no goroutine at all.

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
	a    Assignment
	idx  int // position in Scheduler.Workers (and the SlotPool)
	dead bool
	// Per kind: this job's slot budget, its running attempts, and its
	// pending tasks routed here (the policy-visible load).
	slots, running, queued [2]int
}

// launch is one attempt the core has decided to start.
type launch struct {
	w       *schedWorker
	k       kind
	pos     int // position in tasks[k]
	attempt int // job-unique attempt ID (map tasks)
	clone   bool
}

type schedCore struct {
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

// newCore builds the state of one run, imported pre-done state (coordinator
// restart) included: re-attached maps and journaled reduce results are done
// before anything dispatches.
func newCore(s *Scheduler, maps []MapTask, reduces []ReduceTask) *schedCore {
	c := &schedCore{
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
		c.workers = append(c.workers, &schedWorker{a: a, idx: i,
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

// admit routes every pending task through the placement policy.
func (c *schedCore) admit() {
	for k := range c.tasks {
		for i := range c.tasks[k] {
			if c.tasks[k][i].life == tsPending {
				c.assign(kind(k), i)
			}
		}
	}
}

// settled reports whether nothing is left to dispatch: the job failed or
// every task is done.
func (c *schedCore) settled() bool {
	return c.firstErr != nil || c.left[kMap]+c.left[kReduce] == 0
}

// index is the task's public name: map index or reduce partition.
func (c *schedCore) index(k kind, pos int) int {
	if k == kMap {
		return c.maps[pos].Index
	}
	return c.reduces[pos].Partition
}

// assign routes one pending task through the placement policy, replacing
// any previous routing. With no policy, no live worker, or a pick outside
// the snapshot list, the task stays unrouted (any free slot takes it).
func (c *schedCore) assign(k kind, pos int) {
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

func (c *schedCore) unassign(st *taskState, k kind) {
	if st.assigned != nil {
		st.assigned.queued[k]--
		st.assigned = nil
	}
}

// snapshots builds the policy's view of every live worker, in stable ID
// order, alongside the matching schedWorkers.
func (c *schedCore) snapshots(t TaskView) ([]WorkerSnapshot, []*schedWorker) {
	var snaps []WorkerSnapshot
	var cand []*schedWorker
	for i, w := range c.workers {
		if w.dead {
			continue
		}
		s := WorkerSnapshot{
			ID: i, Name: w.a.W.String(),
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
func (c *schedCore) load(w *schedWorker, k kind) int {
	if c.s.Pool != nil {
		return c.s.Pool.RunningKind(w.idx, k == kMap)
	}
	return w.running[k]
}

func (c *schedCore) fail(err error) {
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

func (c *schedCore) workerDead(w *schedWorker) {
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

// workerLost retires w and resubmits the completed maps whose outputs died
// with it (the body of Scheduler.WorkerLost).
func (c *schedCore) workerLost(w Worker, resubmitMaps []int) {
	for _, sw := range c.workers {
		if sw.a.W == w {
			c.workerDead(sw)
			break
		}
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
func (c *schedCore) pick(w *schedWorker, k kind) (pos int, clone bool) {
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

// dispatch hands runnable tasks to free slots until neither is left and
// returns the attempts to start. Among the live workers with a free slot
// and something runnable, the one running the fewest tasks of that kind
// goes first (ties to the lower index): a scan in index order would fill
// worker 0 before touching worker 1 in every job (DESIGN.md §7).
func (c *schedCore) dispatch() []launch {
	if !c.settled() && c.live == 0 && c.running == 0 {
		c.fail(fmt.Errorf("no live workers left: %d map and %d reduce tasks unfinished", c.left[kMap], c.left[kReduce]))
	}
	var out []launch
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

func (c *schedCore) start(w *schedWorker, k kind, pos int, clone bool) launch {
	st := &c.tasks[k][pos]
	c.unassign(st, k)
	st.life = tsRunning
	st.attempts++
	st.runners = append(st.runners, w)
	w.running[k]++
	c.running++
	l := launch{w: w, k: k, pos: pos, clone: clone}
	if k == kMap {
		l.attempt = c.nextAttempt
		c.nextAttempt++
	}
	if clone {
		st.cloned = true
		c.sum.BackupsLaunched++
	}
	return l
}

// settle takes one attempt's outcome. The first completion of a task wins
// and fills the summary; a losing duplicate (speculation, or a requeue that
// raced a still-running clone) is dropped, so stats count the winner only.
// A genuine task error fails the job; a lost worker is retired and the task
// requeued on the survivors.
func (c *schedCore) settle(l launch, ms MapStats, res ReduceResult, err error) {
	st := &c.tasks[l.k][l.pos]
	st.runners = slices.DeleteFunc(st.runners, func(w *schedWorker) bool { return w == l.w })
	l.w.running[l.k]--
	c.running--
	switch {
	case err != nil:
		c.taskError(l, st, fmt.Errorf("%s task %d on %s: %w", l.k, c.index(l.k, l.pos), l.w.a.W, err))
	case st.life == tsDone: // a losing duplicate: dropped
	case l.k == kMap:
		st.life, st.counted = tsDone, ms
		c.left[kMap]--
		c.sum.ShuffleRecords += ms.ShuffleRecords
		c.sum.MapSpills += ms.Spills
		if l.clone {
			c.sum.BackupsWon++
		}
	default:
		st.life = tsDone
		c.left[kReduce]--
		c.sum.Reduces[c.reduces[l.pos].Partition] = res
	}
}

func (c *schedCore) taskError(l launch, st *taskState, err error) {
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
		c.assign(l.k, l.pos)
		if l.k == kMap {
			c.sum.MapRetries++
		} else {
			c.sum.ReduceRetries++
		}
	}
}
