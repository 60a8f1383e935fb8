package exec

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

var (
	exploreBase  = flag.Int64("explore.base", 0, "first seed TestScheduleExplorer runs")
	exploreSeeds = flag.Int64("explore.seeds", 100000, "number of seeds TestScheduleExplorer runs")
)

// TestScheduleExplorer applies seeded random event orders — complete, fail,
// lose a worker, lose an output — straight to the decision core, checking its invariants
// after every event. No goroutine, no sleep: a failure prints a seed that
// replays the exact schedule.
func TestScheduleExplorer(t *testing.T) {
	for seed := *exploreBase; seed < *exploreBase+*exploreSeeds; seed++ {
		if err := explore(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test -run TestScheduleExplorer ./internal/exec/ -explore.base=%d -explore.seeds=1", seed, err, seed)
		}
	}
}

func explore(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	onFail := 0
	s := &Scheduler{Staged: rng.Intn(2) == 0, Speculate: rng.Intn(2) == 0, OnFail: func(error) { onFail++ },
		Resident: func(w int, t TaskView) int { return (w + t.Index) % 3 }}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		s.Workers = append(s.Workers, Assignment{W: &fakeWorker{name: fmt.Sprint("w", i)}, MapSlots: rng.Intn(4), ReduceSlots: rng.Intn(4)})
	}
	if names := PolicyNames(); rng.Intn(2) == 0 {
		s.Policy, _ = ParsePolicy(names[rng.Intn(len(names))])
	}
	if rng.Intn(3) == 0 {
		s.Pool = NewSlotPool(len(s.Workers), rng.Intn(3))
	}
	maps, reduces := tasks(rng.Intn(10), 1+rng.Intn(4))
	if rng.Intn(4) == 0 { // a resumed job: some tasks were journaled done
		s.FirstAttempt, s.PreDoneReduces = 100, map[int]ReduceResult{0: {Spills: 1}}
		s.PreDoneMaps = rng.Perm(len(maps))[:rng.Intn(len(maps)+1)]
	}
	c := NewCore(s, maps, reduces)
	c.Admit()
	var out []Launch                          // attempts started and not yet ended
	ran := make(map[int]bool)                 // maps an attempt of this incarnation completed
	served := make([]*schedWorker, len(maps)) // who holds each completed map's output
	for _, m := range s.PreDoneMaps {
		served[m] = c.workers[rng.Intn(len(c.workers))] // re-attached from a returning worker
	}
	end := func(i int, err error) { // attempt out[i] returns
		l := out[i]
		out = slices.Delete(out, i, i+1)
		if s.Pool != nil {
			s.Pool.Release(l.w.idx, l.k == kMap)
		}
		if err == nil && l.k == kMap && c.tasks[kMap][l.Pos].life != tsDone {
			served[l.Pos], ran[l.Pos] = l.w, true
		}
		c.Settle(l, MapStats{ShuffleRecords: 1, Spills: 1}, ReduceResult{Spills: c.index(l.k, l.Pos) + 1}, err)
	}
	for {
		started := c.Dispatch()
		out = append(out, started...)
		if err := checkCore(c, out, started); err != nil {
			return err
		}
		if len(out) == 0 {
			break
		}
		i := rng.Intn(len(out))
		switch p := rng.Intn(100); {
		case p < 85:
			end(i, nil)
		case p < 86:
			end(i, errors.New("injected task failure"))
		case p < 88: // a completed map's output is lost, its worker is not (the simulator's unjournaled attempt)
			if pos := rng.Intn(len(maps) + 1); pos < len(maps) && served[pos] != nil {
				served[pos] = nil
				c.WorkerLost(-1, []int{maps[pos].Index})
			}
		default: // out[i]'s worker dies, with or without the coordinator noticing
			w := out[i].w
			coordinator := rng.Intn(2) == 0
			if coordinator {
				var resubmit []int
				for pos, holder := range served {
					if holder == w {
						resubmit, served[pos] = append(resubmit, maps[pos].Index), nil
					}
				}
				c.WorkerLost(w.idx, resubmit)
			}
			for j := len(out) - 1; j >= 0; j-- {
				if out[j].w != w {
					continue
				}
				if coordinator && rng.Intn(8) == 0 {
					end(j, nil) // a reply can still beat the coordinator's verdict
				} else {
					end(j, errLost)
				}
			}
		}
	}
	if !c.Settled() {
		return fmt.Errorf("wedged: nothing running, %v tasks left, err %v", c.left, c.firstErr)
	}
	if c.firstErr != nil {
		if onFail != 1 {
			return fmt.Errorf("OnFail ran %d times for %v", onFail, c.firstErr)
		}
		return nil
	}
	for k := range c.tasks {
		for i, st := range c.tasks[k] {
			if st.life != tsDone || len(st.runners) != 0 || st.attempts > c.maxAttempts || st.assigned != nil {
				return fmt.Errorf("%s task %d ended as %+v", kind(k), i, st)
			}
		}
	}
	for p, res := range c.sum.Reduces {
		if res.Spills != p+1 {
			return fmt.Errorf("partition %d holds result %+v", p, res)
		}
	}
	if n := len(ran); c.sum.ShuffleRecords != int64(n) || c.sum.MapSpills != n || c.sum.BackupsWon > c.sum.BackupsLaunched ||
		c.sum.ReattachedMaps != len(s.PreDoneMaps) || onFail != 0 {
		return fmt.Errorf("%d maps ran, %d re-attached, summed to %+v (OnFail ran %d times)", n, len(s.PreDoneMaps), *c.sum, onFail)
	}
	return nil
}

// checkCore holds what must be true after every dispatch.
func checkCore(c *Core, out, started []Launch) error {
	for _, l := range started {
		name := fmt.Sprintf("%s task %d (attempt %d) on %s", l.k, c.index(l.k, l.Pos), l.Attempt, c.name(l.w))
		beside := func(o Launch) bool { return o.k == l.k && o.Pos == l.Pos && o.w != l.w }
		switch {
		case l.w.dead:
			return fmt.Errorf("%s dispatched on a dead worker", name)
		case l.k == kReduce && c.s.Staged && c.left[kMap] > 0:
			return fmt.Errorf("%s dispatched with %d staged maps left", name, c.left[kMap])
		case l.Clone && !slices.ContainsFunc(out, beside):
			return fmt.Errorf("clone %s has no original beside it", name)
		case l.k == kMap && (l.Attempt < c.s.FirstAttempt || l.Attempt >= c.nextAttempt):
			return fmt.Errorf("%s stamped outside [%d, %d)", name, c.s.FirstAttempt, c.nextAttempt)
		}
	}
	if c.running != len(out) {
		return fmt.Errorf("core counts %d running, %d attempts are out", c.running, len(out))
	}
	for _, w := range c.workers {
		for k := kMap; k <= kReduce; k++ {
			n := 0
			for _, l := range out {
				if l.w == w && l.k == k {
					n++
				}
			}
			capped := k == kMap && c.s.Pool != nil && c.s.Pool.mapCap > 0 && n > c.s.Pool.mapCap
			routed := w.queued[k] < 0 || (w.queued[k] > 0 && c.Settled() && c.firstErr == nil)
			if w.running[k] != n || n > w.slots[k] || capped || routed {
				return fmt.Errorf("%s: %d %s attempts out, core says %d of %d slots, %d queued", c.name(w), n, k, w.running[k], w.slots[k], w.queued[k])
			}
		}
	}
	return nil
}
