package exec

// SlotPool is the shared slot ledger for concurrent jobs on one worker
// pool: each job's Scheduler bounds its own per-worker concurrency with its
// Assignment slots (the job's share), and the pool bounds the *total*
// running tasks per worker across every admitted job. Schedulers acquire a
// pool slot before dispatching a task and release it when the task
// returns; a full worker parks the dispatch until any job's task on that
// worker finishes. The pool also feeds the kind-split
// WorkerSnapshot.PoolMapRunning/PoolReduceRunning, so a least-loaded
// policy in one job sees the load every other job put on a worker.

import (
	"slices"
	"sync"
)

// SlotPool tracks cross-job running tasks per worker. The zero value is
// unusable; build one with NewSlotPool. Workers are identified by the same
// index everywhere: every job sharing the pool must list the same workers
// in the same order in its Scheduler.Workers.
type SlotPool struct {
	mu      sync.Mutex
	mapCap  int // per-worker cap on running map tasks (0 = unlimited)
	mapRun  []int
	redRun  []int
	subs    []poolSub // in subscription order
	nextSub int
}

type poolSub struct {
	id int
	f  func()
}

// NewSlotPool builds a pool for `workers` workers with a per-worker cap on
// concurrently running map tasks across all jobs (0 = unlimited). Reduce
// tasks are counted but never capped: overlapped ones spend most of their
// life parked on routes, not working.
func NewSlotPool(workers, mapCap int) *SlotPool {
	return &SlotPool{
		mapCap: mapCap,
		mapRun: make([]int, workers),
		redRun: make([]int, workers),
	}
}

// RunningKind returns worker w's running task count of one kind across all
// jobs — the kind-split view WorkerSnapshot.KindLoad-aware policies read.
func (p *SlotPool) RunningKind(w int, mapKind bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w < 0 || w >= len(p.mapRun) {
		return 0
	}
	if mapKind {
		return p.mapRun[w]
	}
	return p.redRun[w]
}

// TryAcquire claims one running-task slot of the given kind on worker w,
// reporting false when the worker is at its cross-job cap. Never blocks.
func (p *SlotPool) TryAcquire(w int, mapKind bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w < 0 || w >= len(p.mapRun) {
		return true // unknown worker: don't gate
	}
	if mapKind {
		if p.mapCap > 0 && p.mapRun[w] >= p.mapCap {
			return false
		}
		p.mapRun[w]++
		return true
	}
	p.redRun[w]++
	return true
}

// Release returns a slot claimed by TryAcquire and has every subscribed
// scheduler dispatch again, so a task held back at the cap starts.
// Subscribers are invoked in subscription order — the job parked longest
// gets the freed slot, FIFO at the cap — after the pool lock is dropped
// (they take their own run locks).
func (p *SlotPool) Release(w int, mapKind bool) {
	p.mu.Lock()
	if w >= 0 && w < len(p.mapRun) {
		if mapKind && p.mapRun[w] > 0 {
			p.mapRun[w]--
		} else if !mapKind && p.redRun[w] > 0 {
			p.redRun[w]--
		}
	}
	subs := slices.Clone(p.subs)
	p.mu.Unlock()
	for _, sub := range subs {
		sub.f()
	}
}

// Subscribe registers a callback for slot releases and returns its cancel.
// A core's driver subscribes a dispatch with no event for the duration of
// the run (Scheduler.Run, the simulator's job driver): that is what starts
// a task held back at the cross-job cap.
func (p *SlotPool) Subscribe(f func()) (cancel func()) {
	p.mu.Lock()
	id := p.nextSub
	p.nextSub++
	p.subs = append(p.subs, poolSub{id, f})
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.subs = slices.DeleteFunc(p.subs, func(s poolSub) bool { return s.id == id })
		p.mu.Unlock()
	}
}
