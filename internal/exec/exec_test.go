package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"blmr/internal/core"
)

// fakeWorker is the one scripted Worker. With nil hooks a map reports one
// shuffle record per split record and one spill, and a reduce returns one
// record naming its partition.
type fakeWorker struct {
	name      string
	runMap    func(MapTask) (MapStats, error)
	runReduce func(ReduceTask) (ReduceResult, error)
}

func (w *fakeWorker) String() string { return w.name }

func (w *fakeWorker) RunMap(t MapTask) (MapStats, error) {
	if w.runMap != nil {
		return w.runMap(t)
	}
	return MapStats{ShuffleRecords: int64(len(t.Split)), Spills: 1}, nil
}

func (w *fakeWorker) RunReduce(t ReduceTask) (ReduceResult, error) {
	if w.runReduce != nil {
		return w.runReduce(t)
	}
	return ReduceResult{Output: core.Chunks{{{Key: fmt.Sprintf("r%d", t.Partition)}}}}, nil
}

// fakeWorkers builds n fake workers w0..wn-1 with the same slot budget.
func fakeWorkers(n, mapSlots, reduceSlots int) []Assignment {
	as := make([]Assignment, n)
	for i := range as {
		as[i] = Assignment{W: &fakeWorker{name: fmt.Sprintf("w%d", i)}, MapSlots: mapSlots, ReduceSlots: reduceSlots}
	}
	return as
}

// tasks builds nMaps map tasks of ten records each and nReduces partitions.
func tasks(nMaps, nReduces int) ([]MapTask, []ReduceTask) {
	return SplitMaps(make([]core.Record, 10*nMaps), max(1, nMaps)), ReduceTasks(nReduces)
}

var errLost = &WorkerLostError{Worker: "w", Err: errors.New("conn reset")}

// script drives the decision core by hand — no goroutine, no clock — for
// the tests that assert a scheduling decision. out holds the attempts the
// core started that have not ended yet, oldest first.
type script struct {
	t *testing.T
	*Core
	out []Launch
}

func newScript(t *testing.T, s *Scheduler, nMaps, nReduces int) *script {
	maps, reduces := tasks(nMaps, nReduces)
	sc := &script{t: t, Core: NewCore(s, maps, reduces)}
	sc.Admit()
	sc.step()
	return sc
}

func (sc *script) step() { sc.out = append(sc.out, sc.Dispatch()...) }

// wantOn checks which tasks of kind k are out on worker w, in dispatch order.
func (sc *script) wantOn(w int, k kind, want ...int) {
	sc.t.Helper()
	var got []int
	for _, l := range sc.out {
		if l.w.idx == w && l.k == k {
			got = append(got, sc.index(k, l.Pos))
		}
	}
	if !slices.Equal(got, want) {
		sc.t.Fatalf("w%d runs %s tasks %v, want %v", w, k, got, want)
	}
}

// end returns the attempt of task (k, index) running on worker w the way
// the driver would — pool slot released, outcome settled, dispatch — and
// reports the launch it ended.
func (sc *script) end(w int, k kind, index int, err error) Launch {
	sc.t.Helper()
	for i, l := range sc.out {
		if l.w.idx != w || l.k != k || sc.index(k, l.Pos) != index {
			continue
		}
		sc.out = slices.Delete(sc.out, i, i+1)
		if sc.s.Pool != nil {
			sc.s.Pool.Release(w, k == kMap)
		}
		sc.Settle(l, MapStats{ShuffleRecords: 10, Spills: 1}, ReduceResult{Spills: index + 1}, err)
		sc.step()
		return l
	}
	sc.t.Fatalf("no %s task %d out on w%d (out: %+v)", k, index, w, sc.out)
	return Launch{}
}

// drain ends every attempt successfully, oldest first, until the job settles.
func (sc *script) drain() *Summary {
	sc.t.Helper()
	for len(sc.out) > 0 {
		l := sc.out[0]
		sc.end(l.w.idx, l.k, sc.index(l.k, l.Pos), nil)
	}
	if sc.firstErr != nil || !sc.Settled() {
		sc.t.Fatalf("job did not complete: err=%v left=%v", sc.firstErr, sc.left)
	}
	return sc.sum
}

// runLeakFree is s.Run plus the package comment's promise: no goroutine the
// call started outlives it.
func runLeakFree(t *testing.T, s *Scheduler, nMaps, nReduces int) (*Summary, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	sum, err := s.Run(tasks(nMaps, nReduces))
	// The last attempt closes the run before its own goroutine returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Run, %d after", before, runtime.NumGoroutine())
		}
	}
	return sum, err
}

func TestSchedulerRunsEverything(t *testing.T) {
	sum, err := runLeakFree(t, &Scheduler{Workers: fakeWorkers(1, 2, 2)}, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ShuffleRecords != 70 || sum.MapSpills != 7 {
		t.Fatalf("shuffle records %d, spills %d, want 70 and 7", sum.ShuffleRecords, sum.MapSpills)
	}
	if len(sum.Reduces) != 3 || sum.Reduces[2].Output.Len() != 1 {
		t.Fatalf("reduce results incomplete: %+v", sum.Reduces)
	}
	if sum.MapWall <= 0 {
		t.Fatal("map wall not recorded")
	}
}

// TestSchedulerMapFailureAborts: a failing map task must propagate its
// error, unblock reduce tasks through OnFail (once), and leave no goroutine
// waiting — the in-process half of the worker-fault contract.
func TestSchedulerMapFailureAborts(t *testing.T) {
	block := make(chan struct{})
	failed := 0
	s := &Scheduler{Workers: fakeWorkers(1, 2, 2), OnFail: func(error) {
		failed++
		close(block) // the transport's Fail: wake blocked consumers
	}}
	w := s.Workers[0].W.(*fakeWorker)
	w.runMap = func(mt MapTask) (MapStats, error) {
		if mt.Index == 3 {
			return MapStats{}, errors.New("injected map failure")
		}
		return MapStats{}, nil
	}
	w.runReduce = func(ReduceTask) (ReduceResult, error) {
		<-block // a reduce task blocked in the transport until OnFail
		return ReduceResult{}, errors.New("transport aborted")
	}
	if _, err := runLeakFree(t, s, 8, 2); err == nil {
		t.Fatal("expected the injected map failure")
	}
	if failed != 1 {
		t.Fatalf("OnFail ran %d times, want 1", failed)
	}
}

// TestSchedulerAllWorkersLost: when every worker dies the job must fail
// rather than hang.
func TestSchedulerAllWorkersLost(t *testing.T) {
	s := &Scheduler{Workers: fakeWorkers(1, 1, 1)}
	s.Workers[0].W.(*fakeWorker).runMap = func(MapTask) (MapStats, error) { return MapStats{}, errLost }
	if _, err := runLeakFree(t, s, 2, 1); !IsWorkerLost(err) {
		t.Fatalf("want a failure classified as WorkerLostError, got %v", err)
	}
}

// TestSchedulerResubmitCompletedMap: Scheduler.WorkerLost with resubmit
// indexes re-runs already-completed maps on the survivor while reduces are
// in flight, and a re-executed map is counted once — at 174b3f9 this read
// 60 records and 6 spills, each re-run map's stats added a second time.
func TestSchedulerResubmitCompletedMap(t *testing.T) {
	gate, reducing := make(chan struct{}), make(chan struct{}, 2)
	// Staged: a reduce task starts only once every map has settled.
	s := &Scheduler{Workers: fakeWorkers(2, 1, 1), Staged: true}
	for _, a := range s.Workers {
		a.W.(*fakeWorker).runReduce = func(ReduceTask) (ReduceResult, error) {
			reducing <- struct{}{}
			<-gate
			return ReduceResult{}, nil
		}
	}
	go func() {
		<-reducing
		s.WorkerLost(s.Workers[0].W, []int{0, 1}) // w0's sealed outputs are gone
		close(gate)
	}()
	sum, err := s.Run(tasks(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ShuffleRecords != 40 || sum.MapSpills != 4 || sum.MapRetries != 2 {
		t.Fatalf("records %d, spills %d, retries %d: want 40, 4, 2", sum.ShuffleRecords, sum.MapSpills, sum.MapRetries)
	}
}

// TestSchedulerSpreadsAcrossWorkers: an unrouted task goes to the free
// worker running the fewest tasks of its kind, so one job spreads evenly
// and a second job sharing the pool fills the side the first left lighter.
func TestSchedulerSpreadsAcrossWorkers(t *testing.T) {
	pool := NewSlotPool(2, 0)
	a := newScript(t, &Scheduler{Workers: fakeWorkers(2, 2, 2), Pool: pool}, 4, 3)
	a.wantOn(0, kMap, 0, 2)
	a.wantOn(1, kMap, 1, 3)
	a.wantOn(0, kReduce, 0, 2)
	a.wantOn(1, kReduce, 1)
	b := newScript(t, &Scheduler{Workers: fakeWorkers(2, 2, 2), Pool: pool}, 0, 3)
	b.wantOn(0, kReduce, 1)
	b.wantOn(1, kReduce, 0, 2)
}

// TestSchedulerWorkerLostRequeues: a WorkerLostError retires the worker and
// requeues the task on a survivor instead of failing the job.
func TestSchedulerWorkerLostRequeues(t *testing.T) {
	sc := newScript(t, &Scheduler{Workers: fakeWorkers(2, 1, 1)}, 4, 2)
	sc.end(0, kMap, 0, errLost)
	sc.wantOn(0, kMap) // nothing new on the dead worker
	sc.wantOn(1, kMap, 1)
	sc.end(1, kMap, 1, nil)
	sc.wantOn(1, kMap, 0) // the requeued map, on the survivor
	sc.end(0, kReduce, 0, errLost)
	sum := sc.drain()
	if sum.MapRetries != 1 || sum.ReduceRetries != 1 {
		t.Fatalf("retries %d map / %d reduce, want 1/1", sum.MapRetries, sum.ReduceRetries)
	}
	if sum.ShuffleRecords != 40 {
		t.Fatalf("shuffle records %d, want 40 (winner-only stats)", sum.ShuffleRecords)
	}
}

// TestSchedulerSpeculates: below speculateAfter an idle slot stays idle;
// at it, the straggler is cloned once, on a worker not already running it,
// and the first completion wins. Staged: no reduce starts before the clone
// has settled the map wave.
func TestSchedulerSpeculates(t *testing.T) {
	sc := newScript(t, &Scheduler{Workers: fakeWorkers(3, 1, 1), Speculate: true, Staged: true}, 4, 2)
	sc.end(0, kMap, 0, nil)
	sc.wantOn(0, kMap, 3)
	sc.end(1, kMap, 1, nil)
	if len(sc.out) != 2 || sc.sum.BackupsLaunched != 0 {
		t.Fatalf("cloned at 2 of 4 maps done: out %+v", sc.out)
	}
	sc.end(2, kMap, 2, nil)
	sc.wantOn(1, kMap, 3) // the clone, on the idle worker with the lowest index
	sc.wantOn(2, kMap)    // one clone per map
	for w := range sc.workers {
		sc.wantOn(w, kReduce) // staged: no reduce while a map is still out
	}
	if clone := sc.end(1, kMap, 3, nil); !clone.Clone {
		t.Fatalf("w1's attempt of map 3 is not a clone: %+v", clone)
	}
	sc.wantOn(0, kReduce, 0)
	sc.wantOn(1, kReduce, 1)
	sum := sc.drain() // the original returns last and is dropped
	if sum.BackupsLaunched != 1 || sum.BackupsWon != 1 {
		t.Fatalf("backups launched=%d won=%d, want 1/1", sum.BackupsLaunched, sum.BackupsWon)
	}
	if sum.ShuffleRecords != 40 {
		t.Fatalf("shuffle records %d, want 40 (loser attempt must not double-count)", sum.ShuffleRecords)
	}
}

// TestSchedulerResubmitLetsOlderAttemptWin: a speculative clone wins a map,
// then the clone's worker is lost while the straggling original is still in
// flight. The resubmitted map is not dispatched a third time: the original —
// the older, lower attempt — completes it. Whoever routes map outputs must
// therefore accept a lower attempt after a higher one (the journal fold and
// shuffle.PushSource both do: the last route installed wins).
func TestSchedulerResubmitLetsOlderAttemptWin(t *testing.T) {
	sc := newScript(t, &Scheduler{Workers: fakeWorkers(2, 1, 1), Speculate: true, Staged: true}, 4, 2)
	sc.end(0, kMap, 0, nil)
	sc.end(1, kMap, 1, nil)
	sc.end(0, kMap, 2, nil) // 3 of 4 done: w0 clones map 3, which w1 runs
	clone := sc.end(0, kMap, 3, nil)
	sc.WorkerLost(0, []int{3}) // the winning clone's sealed output is gone
	sc.step()
	sc.wantOn(1, kMap, 3) // still only the original
	if st := sc.tasks[kMap][3]; st.life != tsRunning || sc.left[kMap] != 1 {
		t.Fatalf("resubmitted map with its original still out: life %v, %d maps left; want running, 1", st.life, sc.left[kMap])
	}
	original := sc.end(1, kMap, 3, nil)
	if !clone.Clone || original.Clone || original.Attempt >= clone.Attempt {
		t.Fatalf("map 3 finished as %+v then %+v: want the higher-attempt clone first, the lower-attempt original completing the resubmitted map", clone, original)
	}
	sum := sc.drain()
	if sc.tasks[kMap][3].attempts != 2 || sum.MapRetries != 1 || sum.BackupsLaunched != 1 {
		t.Fatalf("map 3 took %d attempts, MapRetries=%d BackupsLaunched=%d, want 2, 1, 1",
			sc.tasks[kMap][3].attempts, sum.MapRetries, sum.BackupsLaunched)
	}
}

func TestSplitMaps(t *testing.T) {
	maps := SplitMaps(make([]core.Record, 10), 4)
	if len(maps) != 4 {
		t.Fatalf("got %d tasks", len(maps))
	}
	total := 0
	for i, m := range maps {
		if m.Index != i {
			t.Fatalf("task %d has index %d", i, m.Index)
		}
		total += len(m.Split)
	}
	if total != 10 {
		t.Fatalf("split %d records, want 10", total)
	}
	if got := SplitMaps(nil, 4); len(got) != 0 {
		t.Fatalf("empty input produced %d tasks", len(got))
	}
}
