// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulated activities are written as ordinary Go functions running in
// goroutine-backed processes (Proc). At any instant exactly one goroutine —
// either the kernel or a single process — is runnable; control is handed off
// through unbuffered channels, so execution is fully deterministic: events
// scheduled for the same virtual time fire in the order they were scheduled.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in seconds.
type Time = float64

type event struct {
	t   Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// Kernel owns the virtual clock and the pending-event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	yield  chan struct{} // processes signal the kernel here when they park or exit
	live   map[*Proc]bool
	parked map[*Proc]bool
	next   int // process id counter
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{
		yield:  make(chan struct{}),
		live:   make(map[*Proc]bool),
		parked: make(map[*Proc]bool),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run in kernel context at absolute time t.
// Scheduling in the past panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.events.pushEvent(event{t: t, seq: k.seq, fn: fn})
}

// After schedules fn to run in kernel context d seconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// abortSignal unwinds a process goroutine when the simulation is torn down
// while the process is still parked.
type abortSignal struct{}

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, queue operations) must go through the Proc that is currently
// executing; sharing a Proc across goroutines is invalid.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	wake    chan bool // true = resume normally, false = abort
	blocked string    // description of what the proc is blocked on (diagnostics)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process running fn. The process starts at the current
// virtual time, after the currently executing event completes.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.next++
	p := &Proc{k: k, id: k.next, name: name, wake: make(chan bool)}
	k.live[p] = true
	k.At(k.now, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); !ok {
						// Re-panic on the kernel goroutine so test failures surface.
						delete(k.live, p)
						k.yield <- struct{}{}
						panic(r)
					}
				}
				delete(k.live, p)
				k.yield <- struct{}{}
			}()
			fn(p)
		}()
		<-k.yield
	})
	return p
}

// park suspends the process until something calls k.resume(p).
func (p *Proc) park(why string) {
	p.blocked = why
	p.k.parked[p] = true
	p.k.yield <- struct{}{}
	ok := <-p.wake
	p.blocked = ""
	if !ok {
		panic(abortSignal{})
	}
}

// resume wakes p. Must be called from kernel context (inside an event fn).
// Waking a process that is gone is a no-op: during Run's teardown an aborted
// process's deferred releases may name a waiter that was aborted before it.
func (k *Kernel) resume(p *Proc) {
	if !k.live[p] {
		return
	}
	delete(k.parked, p)
	p.wake <- true
	<-k.yield
}

// scheduleResume schedules p to be resumed at absolute time t.
func (k *Kernel) scheduleResume(p *Proc, t Time) {
	k.At(t, func() { k.resume(p) })
}

// Sleep suspends the process for d virtual seconds. Negative d sleeps zero.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleResume(p, p.k.now+d)
	p.park("sleep")
}

// Yield lets every other event scheduled for the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes events until the queue is exhausted, then aborts any process
// still parked on a resource or queue (their goroutines unwind via panic so
// no goroutines leak). It returns the final virtual time.
func (k *Kernel) Run() Time {
	for k.events.Len() > 0 {
		e := k.events.popEvent()
		k.now = e.t
		e.fn()
	}
	// Abort leftover parked processes deterministically (by id).
	for len(k.live) > 0 {
		var victim *Proc
		for p := range k.parked {
			if victim == nil || p.id < victim.id {
				victim = p
			}
		}
		if victim == nil {
			// Live but not parked should be impossible: kernel only runs
			// when all processes are parked or finished.
			panic("sim: live processes remain but none are parked")
		}
		delete(k.parked, victim)
		victim.wake <- false
		<-k.yield
		// The abort may have released resources and scheduled events;
		// those are torn down too, so just keep draining the parked set.
		for k.events.Len() > 0 {
			e := k.events.popEvent()
			k.now = e.t
			e.fn()
		}
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving the remaining events queued. It returns the current time.
func (k *Kernel) RunUntil(deadline Time) Time {
	for k.events.Len() > 0 && k.events.peek().t <= deadline {
		e := k.events.popEvent()
		k.now = e.t
		e.fn()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished.
func (k *Kernel) LiveProcs() int { return len(k.live) }

// BlockedOn reports what each parked process is blocked on, for debugging
// simulation deadlocks.
func (k *Kernel) BlockedOn() []string {
	var out []string
	for p := range k.parked {
		out = append(out, fmt.Sprintf("%s: %s", p.name, p.blocked))
	}
	return out
}
