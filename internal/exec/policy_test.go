package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"blmr/internal/core"
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
// round-robin stripe lands exactly half the maps on each of two workers,
// deterministically (no work-conserving races).
func TestSchedulerPolicyRoutes(t *testing.T) {
	w0 := &stubWorker{name: "w0", failMap: -1}
	w1 := &stubWorker{name: "w1", failMap: -1}
	p, _ := ParsePolicy("round-robin")
	s := Scheduler{
		Workers: []Assignment{
			{W: w0, MapSlots: 1, ReduceSlots: 1},
			{W: w1, MapSlots: 1, ReduceSlots: 1},
		},
		Policy: p,
	}
	if _, err := s.Run(SplitMaps(make([]core.Record, 80), 8), ReduceTasks(2)); err != nil {
		t.Fatal(err)
	}
	if w0.mapsRun.Load() != 4 || w1.mapsRun.Load() != 4 {
		t.Fatalf("round-robin split %d/%d maps, want 4/4", w0.mapsRun.Load(), w1.mapsRun.Load())
	}
}

// TestSchedulerPolicyReroutesOnDeath: tasks routed to a worker that dies
// must re-route to survivors instead of waiting forever.
func TestSchedulerPolicyReroutesOnDeath(t *testing.T) {
	var w0Lost atomic.Bool
	w0 := &fnWorker{name: "w0"}
	w0.runMap = func(MapTask) (MapStats, error) {
		w0Lost.Store(true)
		return MapStats{}, &WorkerLostError{Worker: "w0", Err: errors.New("conn reset")}
	}
	var w1Maps atomic.Int64
	w1 := &fnWorker{name: "w1", runMap: func(MapTask) (MapStats, error) {
		w1Maps.Add(1)
		return MapStats{ShuffleRecords: 1}, nil
	}}
	p, _ := ParsePolicy("round-robin")
	s := Scheduler{
		Workers: []Assignment{
			{W: w0, MapSlots: 1, ReduceSlots: 1},
			{W: w1, MapSlots: 1, ReduceSlots: 1},
		},
		Policy: p,
	}
	sum, err := s.Run(SplitMaps(make([]core.Record, 60), 6), ReduceTasks(2))
	if err != nil {
		t.Fatalf("worker death failed the routed job: %v", err)
	}
	if !w0Lost.Load() || w1Maps.Load() != 6 {
		t.Fatalf("survivor ran %d maps, want all 6 after re-routing", w1Maps.Load())
	}
	if sum.ShuffleRecords != 6 {
		t.Fatalf("shuffle records %d, want 6", sum.ShuffleRecords)
	}
}

// gateWorker blocks every map task on a gate while counting per-worker
// concurrency, for the fair-share tests below.
type gateWorker struct {
	name    string
	gate    chan struct{}
	running atomic.Int64 // this job's in-flight maps on this worker
}

func (w *gateWorker) String() string { return w.name }
func (w *gateWorker) RunMap(t MapTask) (MapStats, error) {
	w.running.Add(1)
	defer w.running.Add(-1)
	<-w.gate
	return MapStats{ShuffleRecords: 1}, nil
}
func (w *gateWorker) RunReduce(t ReduceTask) (ReduceResult, error) {
	return ReduceResult{}, nil
}

// TestSlotPoolFairShares: two concurrent jobs on one shared two-worker pool,
// each with a one-slot-per-worker share and the pool capped at the sum of
// shares — while both jobs have work, each reaches its full share on every
// worker (within one slot, i.e. exactly its share here): admission of job B
// cannot starve job A and vice versa.
func TestSlotPoolFairShares(t *testing.T) {
	const workers = 2
	pool := NewSlotPool(workers, 2) // cap 2 = the two jobs' shares
	gate := make(chan struct{})
	mkJob := func(tag string) (*Scheduler, []*gateWorker) {
		ws := make([]*gateWorker, workers)
		as := make([]Assignment, workers)
		for i := range ws {
			ws[i] = &gateWorker{name: tag, gate: gate}
			as[i] = Assignment{W: ws[i], MapSlots: 1, ReduceSlots: 1}
		}
		return &Scheduler{Workers: as, Pool: pool}, ws
	}
	sa, wa := mkJob("a")
	sb, wb := mkJob("b")
	var wg sync.WaitGroup
	run := func(s *Scheduler) {
		defer wg.Done()
		if _, err := s.Run(SplitMaps(make([]core.Record, 80), 8), ReduceTasks(1)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go run(sa)
	go run(sb)
	// Both jobs must reach their full share (1 map per worker) while every
	// task is parked on the gate — neither can be squeezed below it.
	waitFor(t, func() bool {
		for i := 0; i < workers; i++ {
			if wa[i].running.Load() != 1 || wb[i].running.Load() != 1 {
				return false
			}
		}
		return true
	})
	for i := 0; i < workers; i++ {
		if got := pool.RunningKind(i, true); got != 2 {
			t.Fatalf("pool sees %d running on worker %d, want 2 (both shares)", got, i)
		}
	}
	close(gate)
	wg.Wait()
}

// TestSlotPoolCapsCrossJobConcurrency: with a one-slot-per-worker pool cap,
// two jobs' tasks on the same worker serialize — total running per worker
// never exceeds the cap.
func TestSlotPoolCapsCrossJobConcurrency(t *testing.T) {
	const workers = 2
	pool := NewSlotPool(workers, 1)
	perWorker := make([]atomic.Int64, workers)
	var overCap atomic.Bool
	mkJob := func() *Scheduler {
		as := make([]Assignment, workers)
		for i := range as {
			i := i
			as[i] = Assignment{W: &fnWorker{name: "w", runMap: func(MapTask) (MapStats, error) {
				if perWorker[i].Add(1) > 1 {
					overCap.Store(true)
				}
				defer perWorker[i].Add(-1)
				return MapStats{}, nil
			}}, MapSlots: 1, ReduceSlots: 1}
		}
		return &Scheduler{Workers: as, Pool: pool}
	}
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		s := mkJob()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Run(SplitMaps(make([]core.Record, 160), 16), ReduceTasks(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if overCap.Load() {
		t.Fatal("cross-job running maps exceeded the pool's per-worker cap")
	}
}
