package exec

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func snaps(loads ...int) []WorkerSnapshot {
	out := make([]WorkerSnapshot, len(loads))
	for i, l := range loads {
		out[i] = WorkerSnapshot{ID: i, PoolMapRunning: l}
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil || p == nil {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != nil {
		t.Fatalf("empty policy should parse to nil, got %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestRoundRobinStripes(t *testing.T) {
	p, _ := ParsePolicy("round-robin")
	got := []int{}
	for i := 0; i < 5; i++ {
		got = append(got, p.Pick(TaskView{Map: true, Index: i}, snaps(0, 9, 9)))
	}
	want := []int{0, 1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin picks %v, want %v (load-blind stripe)", got, want)
		}
	}
}

func TestLeastLoadedPicksMinimum(t *testing.T) {
	p, _ := ParsePolicy("least-loaded")
	if k := p.Pick(TaskView{Map: true}, snaps(3, 1, 2)); k != 1 {
		t.Fatalf("least-loaded picked %d, want 1", k)
	}
	// Queued tasks count as load too.
	s := snaps(1, 1)
	s[0].MapQueued = 2
	if k := p.Pick(TaskView{Map: true}, s); k != 1 {
		t.Fatalf("least-loaded ignored queue depth, picked %d", k)
	}
	if k := p.Pick(TaskView{Map: true}, snaps(2, 2, 2)); k != 0 {
		t.Fatalf("tie must break to lowest ID, picked %d", k)
	}
	// Cross-kind isolation: parked reduce tasks on worker 1 must not mask
	// the map serializing on worker 0 — map placement weighs map load.
	s = snaps(1, 0)
	s[1].PoolReduceRunning = 2
	if k := p.Pick(TaskView{Map: true}, s); k != 1 {
		t.Fatalf("reduce load polluted map placement, picked %d", k)
	}
}

func TestLocalityPrefersResidentRuns(t *testing.T) {
	p, _ := ParsePolicy("locality")
	s := snaps(0, 5)
	s[1].ResidentRuns = 4
	if k := p.Pick(TaskView{Map: false, Index: 1}, s); k != 1 {
		t.Fatalf("locality ignored resident runs, picked %d", k)
	}
	// Map splits ship from the coordinator: fall back to least-loaded.
	if k := p.Pick(TaskView{Map: true, Index: 0}, s); k != 0 {
		t.Fatalf("locality map placement picked %d, want least-loaded 0", k)
	}
}

// TestSchedulerPolicyRoutes: a routed task waits for its worker — the
// round-robin stripe lands exactly half the maps on each of two workers even
// though w0 frees its slot first every time.
func TestSchedulerPolicyRoutes(t *testing.T) {
	p, _ := ParsePolicy("round-robin")
	sc := newScript(t, &Scheduler{Workers: fakeWorkers(2, 1, 1), Policy: p}, 8, 2)
	for _, m := range []int{0, 2, 4} {
		sc.end(0, kMap, m, nil)
		sc.wantOn(0, kMap, m+2)
		sc.wantOn(1, kMap, 1)
	}
	sc.end(0, kMap, 6, nil)
	sc.wantOn(0, kMap) // idle: maps 3, 5 and 7 wait for w1
	if q := sc.workers[1].queued[kMap]; q != 3 {
		t.Fatalf("%d maps queued on w1, want 3", q)
	}
	sc.drain()
}

// TestSchedulerPolicyReroutesOnDeath: tasks routed to a worker that dies
// re-route to the survivors instead of waiting forever.
func TestSchedulerPolicyReroutesOnDeath(t *testing.T) {
	p, _ := ParsePolicy("round-robin")
	sc := newScript(t, &Scheduler{Workers: fakeWorkers(2, 1, 1), Policy: p}, 6, 2)
	sc.end(0, kMap, 0, errLost)
	if q0, q1 := sc.workers[0].queued, sc.workers[1].queued; q0 != [2]int{} || q1[kMap] != 5 {
		t.Fatalf("after w0 died: queued %v on w0, %v on w1; want nothing and the 5 maps not running", q0, q1)
	}
	sc.end(0, kReduce, 0, errLost)
	for len(sc.out) > 0 {
		l := sc.out[0]
		sc.end(1, l.k, sc.index(l.k, l.Pos), nil) // fails unless it ran on the survivor
	}
	if sum := sc.drain(); sum.ShuffleRecords != 60 {
		t.Fatalf("shuffle records %d, want 60", sum.ShuffleRecords)
	}
}

// runTwoJobs starts two concurrent jobs of nMaps maps over one shared pool,
// one map slot per worker each; runMap is the body of every map on worker w.
func runTwoJobs(t *testing.T, pool *SlotPool, workers, nMaps int, runMap func(w int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		s := &Scheduler{Workers: fakeWorkers(workers, 1, 1), Pool: pool}
		for w, a := range s.Workers {
			a.W.(*fakeWorker).runMap = func(MapTask) (MapStats, error) {
				runMap(w)
				return MapStats{}, nil
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Run(tasks(nMaps, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	return &wg
}

// TestSlotPoolFairShares: two concurrent jobs on one shared two-worker pool,
// each with a one-slot-per-worker share and the pool capped at the sum of
// shares — while both jobs have work, each reaches its full share on every
// worker (within one slot, i.e. exactly its share here): admission of job B
// cannot starve job A and vice versa.
func TestSlotPoolFairShares(t *testing.T) {
	const workers = 2
	pool := NewSlotPool(workers, 2) // cap 2 = the two jobs' shares
	gate, started := make(chan struct{}), make(chan struct{})
	wg := runTwoJobs(t, pool, workers, 8, func(int) {
		select {
		case started <- struct{}{}:
			<-gate
		case <-gate:
		}
	})
	// Every map parks on the gate and a job has one map slot per worker, so
	// four starts are each job's full share: neither is squeezed below it.
	for i := 0; i < 2*workers; i++ {
		<-started
	}
	for i := 0; i < workers; i++ {
		if got := pool.RunningKind(i, true); got != 2 {
			t.Fatalf("pool sees %d running on worker %d, want 2 (both shares)", got, i)
		}
	}
	close(gate)
	wg.Wait()
}

// TestSlotPoolCapsCrossJobConcurrency: with a one-slot-per-worker pool cap,
// two jobs' maps on the same worker serialize. In the core, the second job's
// map dispatch parks at the cap while its reduce, which is counted but never
// capped, goes; through two real Runs, the parked job is woken by the other
// job's releases and the cap is never exceeded.
func TestSlotPoolCapsCrossJobConcurrency(t *testing.T) {
	const workers = 2
	pool := NewSlotPool(workers, 1)
	a := newScript(t, &Scheduler{Workers: fakeWorkers(workers, 1, 1), Pool: pool}, 2, 1)
	b := newScript(t, &Scheduler{Workers: fakeWorkers(workers, 1, 1), Pool: pool}, 2, 1)
	b.wantOn(0, kMap) // parked: job a holds both workers' one pool slot
	b.wantOn(1, kMap)
	b.wantOn(1, kReduce, 0) // counted, never capped — and beside job a's, not on top of it
	a.end(0, kMap, 0, nil)
	b.step() // what the pool's release callback drives
	b.wantOn(0, kMap, 0)

	var running [workers]atomic.Int64
	runTwoJobs(t, NewSlotPool(workers, 1), workers, 16, func(w int) {
		if running[w].Add(1) > 1 {
			t.Error("cross-job running maps exceeded the pool's per-worker cap")
		}
		running[w].Add(-1)
	}).Wait()
}

// TestSlotPoolWakesParkedJobsInOrder: two jobs parked behind a cap-1 pool
// get the freed slot in the order they subscribed — FIFO at the cap. At
// 10d0cc9 Release walked a map of subscribers, so the later job won the
// slot in about half the rounds.
func TestSlotPoolWakesParkedJobsInOrder(t *testing.T) {
	for round := 0; round < 200; round++ {
		pool := NewSlotPool(1, 1)
		mapGate, reduceGate := make(chan struct{}), make(chan struct{})
		ran := make(chan string, 3)
		var wg sync.WaitGroup
		// start runs a one-map job and returns once it has subscribed and
		// dispatched: the holder when its map is in, a parked job when its
		// reduce (counted, never capped) is. Reduces stay in until every map
		// has run, so the only releases in play are the maps'.
		start := func(name string, holder bool) {
			in := make(chan struct{})
			s := &Scheduler{Workers: fakeWorkers(1, 1, 1), Pool: pool}
			w := s.Workers[0].W.(*fakeWorker)
			w.runMap = func(MapTask) (MapStats, error) {
				ran <- name
				if holder {
					close(in)
					<-mapGate
				}
				return MapStats{}, nil
			}
			w.runReduce = func(ReduceTask) (ReduceResult, error) {
				if !holder {
					close(in)
				}
				<-reduceGate
				return ReduceResult{}, nil
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Run(tasks(1, 1)); err != nil {
					t.Error(err)
				}
			}()
			<-in
		}
		start("a", true)
		start("b", false)
		start("c", false)
		close(mapGate)
		order := []string{<-ran, <-ran, <-ran}
		close(reduceGate)
		wg.Wait()
		if !slices.Equal(order, []string{"a", "b", "c"}) {
			t.Fatalf("round %d: maps ran in order %v, want a b c", round, order)
		}
	}
}
