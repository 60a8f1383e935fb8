package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blmr/internal/core"
)

// stubWorker scripts per-task outcomes for scheduler tests.
type stubWorker struct {
	name      string
	failMap   int // index of the map task to fail, -1 = none
	block     chan struct{}
	mapsRun   atomic.Int64
	reduceRun atomic.Int64
}

func (w *stubWorker) String() string { return w.name }

func (w *stubWorker) RunMap(t MapTask) (MapStats, error) {
	w.mapsRun.Add(1)
	if t.Index == w.failMap {
		return MapStats{}, errors.New("injected map failure")
	}
	return MapStats{ShuffleRecords: int64(len(t.Split))}, nil
}

func (w *stubWorker) RunReduce(t ReduceTask) (ReduceResult, error) {
	w.reduceRun.Add(1)
	if w.block != nil {
		// Simulates a reduce task blocked in the transport until OnFail.
		<-w.block
		return ReduceResult{}, errors.New("transport aborted")
	}
	return ReduceResult{Output: []core.Record{{Key: fmt.Sprintf("r%d", t.Partition)}}}, nil
}

func TestSchedulerRunsEverything(t *testing.T) {
	w := &stubWorker{name: "w0", failMap: -1}
	s := Scheduler{Workers: []Assignment{{W: w, MapSlots: 2, ReduceSlots: 2}}}
	maps := SplitMaps(make([]core.Record, 100), 7)
	sum, err := s.Run(maps, ReduceTasks(3))
	if err != nil {
		t.Fatal(err)
	}
	if sum.ShuffleRecords != 100 {
		t.Fatalf("shuffle records %d, want 100", sum.ShuffleRecords)
	}
	if len(sum.Reduces) != 3 || len(sum.Reduces[2].Output) != 1 {
		t.Fatalf("reduce results incomplete: %+v", sum.Reduces)
	}
	if sum.MapWall <= 0 {
		t.Fatal("map wall not recorded")
	}
}

// TestSchedulerMapFailureAborts: a failing map task must propagate its
// error, unblock reduce tasks through OnFail, and leave no goroutine
// waiting — the in-process half of the worker-fault contract.
func TestSchedulerMapFailureAborts(t *testing.T) {
	block := make(chan struct{})
	w := &stubWorker{name: "w0", failMap: 3, block: block}
	var failed atomic.Int64
	s := Scheduler{
		Workers: []Assignment{{W: w, MapSlots: 2, ReduceSlots: 2}},
		OnFail: func(err error) {
			failed.Add(1)
			close(block) // the transport's Fail: wake blocked consumers
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(SplitMaps(make([]core.Record, 80), 8), ReduceTasks(2))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected the injected map failure")
		}
		if failed.Load() != 1 {
			t.Fatalf("OnFail ran %d times, want 1", failed.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler hung after worker failure")
	}
}

// TestSchedulerSpreadsAcrossWorkers: every worker with slots participates.
func TestSchedulerSpreadsAcrossWorkers(t *testing.T) {
	w0 := &stubWorker{name: "w0", failMap: -1}
	w1 := &stubWorker{name: "w1", failMap: -1}
	s := Scheduler{Workers: []Assignment{
		{W: w0, MapSlots: 1, ReduceSlots: 1},
		{W: w1, MapSlots: 1, ReduceSlots: 1},
	}}
	// Enough tasks that a single slot cannot plausibly win every race.
	maps := SplitMaps(make([]core.Record, 512), 64)
	if _, err := s.Run(maps, ReduceTasks(16)); err != nil {
		t.Fatal(err)
	}
	if w0.mapsRun.Load()+w1.mapsRun.Load() != 64 {
		t.Fatalf("ran %d+%d map tasks, want 64", w0.mapsRun.Load(), w1.mapsRun.Load())
	}
	if w0.reduceRun.Load()+w1.reduceRun.Load() != 16 {
		t.Fatalf("ran %d+%d reduce tasks, want 16", w0.reduceRun.Load(), w1.reduceRun.Load())
	}
}

// fnWorker scripts arbitrary per-task behavior for churn tests.
type fnWorker struct {
	name      string
	runMap    func(MapTask) (MapStats, error)
	runReduce func(ReduceTask) (ReduceResult, error)
}

func (w *fnWorker) String() string { return w.name }
func (w *fnWorker) RunMap(t MapTask) (MapStats, error) {
	if w.runMap != nil {
		return w.runMap(t)
	}
	return MapStats{}, nil
}
func (w *fnWorker) RunReduce(t ReduceTask) (ReduceResult, error) {
	if w.runReduce != nil {
		return w.runReduce(t)
	}
	return ReduceResult{}, nil
}

// TestSchedulerWorkerLostRequeues: a WorkerLostError must retire the worker
// and requeue the task on a survivor instead of failing the job.
func TestSchedulerWorkerLostRequeues(t *testing.T) {
	var lost atomic.Bool
	w0 := &fnWorker{name: "w0"}
	w0.runMap = func(mt MapTask) (MapStats, error) {
		if lost.CompareAndSwap(false, true) {
			return MapStats{}, &WorkerLostError{Worker: "w0", Err: errors.New("conn reset")}
		}
		return MapStats{ShuffleRecords: 1}, nil
	}
	w1 := &fnWorker{name: "w1", runMap: func(MapTask) (MapStats, error) {
		for !lost.Load() {
			time.Sleep(time.Millisecond) // hold w1's slot until w0's loss lands
		}
		return MapStats{ShuffleRecords: 1}, nil
	}}
	s := Scheduler{Workers: []Assignment{
		{W: w0, MapSlots: 1, ReduceSlots: 1},
		{W: w1, MapSlots: 1, ReduceSlots: 1},
	}}
	sum, err := s.Run(SplitMaps(make([]core.Record, 40), 4), ReduceTasks(2))
	if err != nil {
		t.Fatalf("worker loss failed the job: %v", err)
	}
	if sum.MapRetries != 1 {
		t.Fatalf("MapRetries = %d, want 1", sum.MapRetries)
	}
	if sum.ShuffleRecords != 4 {
		t.Fatalf("shuffle records %d, want 4 (winner-only stats)", sum.ShuffleRecords)
	}
}

// TestSchedulerResubmitCompletedMap: WorkerLost with resubmit indices must
// re-run already-completed maps on survivors while reduces are in flight.
func TestSchedulerResubmitCompletedMap(t *testing.T) {
	gate := make(chan struct{})
	var mapRuns, w1Runs atomic.Int64
	mkMap := func(counter *atomic.Int64) func(MapTask) (MapStats, error) {
		return func(MapTask) (MapStats, error) {
			mapRuns.Add(1)
			if counter != nil {
				counter.Add(1)
			}
			return MapStats{}, nil
		}
	}
	w0 := &fnWorker{name: "w0", runMap: mkMap(nil)}
	w1 := &fnWorker{name: "w1", runMap: mkMap(&w1Runs)}
	blockReduce := func(ReduceTask) (ReduceResult, error) {
		<-gate
		return ReduceResult{}, nil
	}
	w0.runReduce = blockReduce
	w1.runReduce = blockReduce
	s := Scheduler{Workers: []Assignment{
		{W: w0, MapSlots: 1, ReduceSlots: 1},
		{W: w1, MapSlots: 1, ReduceSlots: 1},
	}}
	done := make(chan *Summary, 1)
	go func() {
		sum, err := s.Run(SplitMaps(make([]core.Record, 40), 4), ReduceTasks(2))
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	waitFor(t, func() bool { return mapRuns.Load() == 4 })
	base := w1Runs.Load()
	s.WorkerLost(w0, []int{0, 1}) // w0's sealed outputs are gone
	waitFor(t, func() bool { return w1Runs.Load() == base+2 })
	close(gate)
	sum := <-done
	if sum == nil {
		t.Fatal("run failed")
	}
	if sum.MapRetries != 2 {
		t.Fatalf("MapRetries = %d, want 2", sum.MapRetries)
	}
}

// TestSchedulerSpeculates: with most of the wave done, an idle worker clones
// the straggler and the first completion wins.
func TestSchedulerSpeculates(t *testing.T) {
	cloneSettled := make(chan struct{})
	var settle sync.Once
	runMap := func(mt MapTask) (MapStats, error) {
		// Four maps, no failures: attempts 0-3 are the originals, so map 3's
		// original is the one below 4 — whichever goroutine gets here first.
		if mt.Index == 3 && mt.Attempt < 4 {
			<-cloneSettled // straggle until the clone has won
		}
		return MapStats{ShuffleRecords: 1}, nil
	}
	// Staged: a reduce task starts only once every map is done, so the first
	// one proves the scheduler has settled the clone's completion — releasing
	// the original on the clone's mere return let it overtake the clone to
	// the scheduler's lock under load (launched=1 won=0).
	runReduce := func(ReduceTask) (ReduceResult, error) {
		settle.Do(func() { close(cloneSettled) })
		return ReduceResult{}, nil
	}
	w0 := &fnWorker{name: "w0", runMap: runMap, runReduce: runReduce}
	w1 := &fnWorker{name: "w1", runMap: runMap, runReduce: runReduce}
	s := Scheduler{
		Workers: []Assignment{
			{W: w0, MapSlots: 1, ReduceSlots: 1},
			{W: w1, MapSlots: 1, ReduceSlots: 1},
		},
		Speculate: true, Staged: true,
	}
	sum, err := s.Run(SplitMaps(make([]core.Record, 40), 4), ReduceTasks(2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.BackupsLaunched != 1 || sum.BackupsWon != 1 {
		t.Fatalf("backups launched=%d won=%d, want 1/1", sum.BackupsLaunched, sum.BackupsWon)
	}
	if sum.ShuffleRecords != 4 {
		t.Fatalf("shuffle records %d, want 4 (loser attempt must not double-count)", sum.ShuffleRecords)
	}
}

// TestSchedulerResubmitLetsOlderAttemptWin: a speculative clone wins a map,
// then the clone's worker is lost while the straggling original is still in
// flight. The resubmitted map is not dispatched a third time: the original —
// the older, lower attempt — completes it. Whoever routes map outputs must
// therefore accept a lower attempt after a higher one (the journal fold and
// shuffle.PushSource both do: the last route installed wins).
func TestSchedulerResubmitLetsOlderAttemptWin(t *testing.T) {
	release := make(chan struct{})
	gate := make(chan struct{})
	var mu sync.Mutex
	var ran, finished []int // map 3's attempt IDs: every one dispatched, and in completion order
	var cloneWorker *fnWorker
	var reduces atomic.Int64
	mkWorker := func(name string) *fnWorker {
		w := &fnWorker{name: name}
		w.runMap = func(mt MapTask) (MapStats, error) {
			if mt.Index != 3 {
				return MapStats{}, nil
			}
			// Four maps, no failures: attempts 0-3 are the originals.
			original := mt.Attempt < 4
			mu.Lock()
			ran = append(ran, mt.Attempt)
			if !original {
				cloneWorker = w
			}
			mu.Unlock()
			if original {
				<-release // straggle past the clone's win and its worker's death
			}
			mu.Lock()
			finished = append(finished, mt.Attempt)
			mu.Unlock()
			return MapStats{}, nil
		}
		w.runReduce = func(ReduceTask) (ReduceResult, error) {
			reduces.Add(1)
			<-gate
			return ReduceResult{}, nil
		}
		return w
	}
	w0, w1 := mkWorker("w0"), mkWorker("w1")
	// Staged: a reduce task starts only once every map is done, so seeing
	// one proves the scheduler has settled the clone's completion.
	s := Scheduler{
		Workers:   []Assignment{{W: w0, MapSlots: 1, ReduceSlots: 1}, {W: w1, MapSlots: 1, ReduceSlots: 1}},
		Speculate: true, Staged: true,
	}
	done := make(chan *Summary, 1)
	go func() {
		sum, err := s.Run(SplitMaps(make([]core.Record, 40), 4), ReduceTasks(2))
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	waitFor(t, func() bool { return reduces.Load() > 0 })
	s.WorkerLost(cloneWorker, []int{3}) // the winning clone's sealed output is gone
	close(release)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(finished) == 2 })
	close(gate)
	sum := <-done
	if sum == nil {
		t.Fatal("run failed")
	}
	slices.Sort(ran)
	if len(ran) != 2 || finished[0] != ran[1] || finished[1] != ran[0] {
		t.Fatalf("map 3 ran as attempts %v and finished as %v: want exactly the original and its clone, the higher-attempt clone finishing first and the lower-attempt original completing the resubmitted map", ran, finished)
	}
	if sum.MapRetries != 1 || sum.BackupsLaunched != 1 {
		t.Fatalf("MapRetries=%d BackupsLaunched=%d, want 1/1", sum.MapRetries, sum.BackupsLaunched)
	}
}

// TestSchedulerAllWorkersLost: when every worker dies the job must fail
// rather than hang.
func TestSchedulerAllWorkersLost(t *testing.T) {
	w := &fnWorker{name: "w0", runMap: func(MapTask) (MapStats, error) {
		return MapStats{}, &WorkerLostError{Worker: "w0", Err: errors.New("gone")}
	}}
	s := Scheduler{Workers: []Assignment{{W: w, MapSlots: 1, ReduceSlots: 1}}}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(SplitMaps(make([]core.Record, 10), 2), ReduceTasks(1))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected failure with no live workers")
		}
		if !IsWorkerLost(err) {
			t.Fatalf("error lost its WorkerLostError classification: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scheduler hung with every worker dead")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
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
