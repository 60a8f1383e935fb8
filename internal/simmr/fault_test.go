package simmr

import (
	"fmt"
	"sort"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/exec"
	"blmr/internal/metrics"
	"blmr/internal/workload"
)

// faultRun executes WordCount on a 3-worker TCP pool, optionally killing
// pool worker 0 at killAt virtual seconds.
func faultRun(t *testing.T, mode Mode, workers int, killAt float64, mut func(*JobSpec)) *Result {
	t.Helper()
	eng := NewEngine(DefaultConfig())
	recs := workload.Text(37, 2500, 400, 6)
	f := eng.Ingest("in", workload.SplitEvenly(recs, 12))
	job := JobSpec{
		Job:      apps.WordCount(),
		Reducers: 6, Mode: mode, Workers: workers, Transport: TCPRunExchange,
		KillWorkerAt: killAt,
	}
	if mut != nil {
		mut(&job)
	}
	return eng.Run(job, f)
}

// TestWorkerKillRecovers: killing a worker mid-job must re-execute its maps
// on survivors and still produce the baseline output, at a completion time
// no better than the undisturbed run.
func TestWorkerKillRecovers(t *testing.T) {
	for _, mode := range []Mode{Barrier, Pipelined} {
		base := faultRun(t, mode, 3, 0, nil)
		if base.Failed {
			t.Fatalf("mode=%v baseline failed: %s", mode, base.FailReason)
		}
		killed := faultRun(t, mode, 3, base.Completion*0.4, nil)
		if killed.Failed {
			t.Fatalf("mode=%v killed run failed: %s", mode, killed.FailReason)
		}
		requireSameOutput(t, mode.String(), base.Output, killed.Output)
		if killed.MapRetries < 1 {
			t.Fatalf("mode=%v: kill at %.2fs lost nothing (MapRetries=%d, LostMapOutputs=%d)",
				mode, base.Completion*0.4, killed.MapRetries, killed.LostMapOutputs)
		}
		if killed.Completion < base.Completion-1e-9 {
			t.Fatalf("mode=%v: killed run finished faster (%.2fs) than baseline (%.2fs)",
				mode, killed.Completion, base.Completion)
		}
	}
}

// TestWorkerKillStagedBarrier: the staged TCP control plane recovers too —
// fetchers parked behind the stage barrier re-route to re-executed outputs.
func TestWorkerKillStagedBarrier(t *testing.T) {
	staged := func(j *JobSpec) { j.Staged = true }
	base := faultRun(t, Barrier, 3, 0, staged)
	killed := faultRun(t, Barrier, 3, base.Completion*0.5, staged)
	if killed.Failed {
		t.Fatalf("staged killed run failed: %s", killed.FailReason)
	}
	requireSameOutput(t, "staged", base.Output, killed.Output)
	if killed.MapRetries+killed.LostMapOutputs < 1 {
		t.Fatal("staged kill lost nothing; the injection never fired")
	}
}

// TestWorkerKillAfterCompletion: a kill scheduled past the job's end must
// change nothing.
func TestWorkerKillAfterCompletion(t *testing.T) {
	base := faultRun(t, Pipelined, 3, 0, nil)
	late := faultRun(t, Pipelined, 3, base.Completion*10, nil)
	if late.Failed {
		t.Fatalf("late-kill run failed: %s", late.FailReason)
	}
	if late.MapRetries != 0 || late.LostMapOutputs != 0 {
		t.Fatalf("late kill re-executed maps: retries=%d lost=%d",
			late.MapRetries, late.LostMapOutputs)
	}
	if late.Completion != base.Completion {
		t.Fatalf("late kill changed completion: %.4fs vs %.4fs",
			late.Completion, base.Completion)
	}
}

// TestWorkerKillNeedsSurvivors: killing the only worker must fail the job
// up front rather than hang.
func TestWorkerKillNeedsSurvivors(t *testing.T) {
	res := faultRun(t, Barrier, 1, 1.0, nil)
	if !res.Failed {
		t.Fatal("one-worker pool survived its only worker's death")
	}
}

// TestWorkerKillWithSpeculation: backups must never land on the doomed node,
// and the recovered output stays correct.
func TestWorkerKillWithSpeculation(t *testing.T) {
	spec := func(j *JobSpec) { j.Speculative = true }
	base := faultRun(t, Pipelined, 3, 0, nil)
	killed := faultRun(t, Pipelined, 3, base.Completion*0.4, spec)
	if killed.Failed {
		t.Fatalf("speculative killed run failed: %s", killed.FailReason)
	}
	requireSameOutput(t, "speculative", base.Output, killed.Output)
}

// faultConfig is the fault-point testbed: three identical nodes, so losing
// one can only cost time (on a heterogeneous pool, killing its slowest node
// before anything is published finishes the job faster), with two map slots
// each, so twelve maps run in two waves and a kill finds maps published,
// running and still queued; virtual time is stretched to seconds.
func faultConfig() Config {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 3
	cfg.Cluster.MapSlots = 2
	cfg.Cluster.SpeedSpread = 0
	cfg.ByteScale, cfg.RecordScale = 500, 500
	return cfg
}

// faultSetup is the fault tests' job: a 12-map WordCount on a fresh
// faultConfig engine, over the TCP exchange.
func faultSetup(mode Mode, mut func(*JobSpec)) (*Engine, JobSpec, *File) {
	eng := NewEngine(faultConfig())
	f := eng.Ingest("in", workload.SplitEvenly(workload.Text(37, 2500, 400, 6), 12))
	job := JobSpec{Job: apps.WordCount(), Reducers: 6, Mode: mode, Workers: 3, Transport: TCPRunExchange}
	if mut != nil {
		mut(&job)
	}
	return eng, job, f
}

// faultJob is faultSetup's job prepared but not started: the caller arms
// injections on the returned driver and runs the kernel.
func faultJob(t *testing.T, mode Mode, mut func(*JobSpec)) (*Engine, *jobRun) {
	t.Helper()
	eng, job, f := faultSetup(mode, mut)
	res := eng.prepare(&job, f)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	return eng, eng.newJobRun(&job, f, res, nil, nil)
}

// mapPublishTimes is when each map attempt of a finished run ended,
// ascending: in an undisturbed run, when each map published.
func mapPublishTimes(eng *Engine) []float64 {
	var at []float64
	for _, sp := range eng.Col.Spans() {
		if sp.Stage == metrics.StageMap {
			at = append(at, sp.End)
		}
	}
	sort.Float64s(at)
	return at
}

// TestEveryFaultPoint enumerates where a kill can land instead of sampling
// one: for {barrier, pipelined} × {staged, overlapped} × {worker 0, the
// coordinator}, just after job start, mid-way through the first attempt,
// just after every map publish, and during the reduce tail. Every point must
// produce the undisturbed output, no sooner than the undisturbed run, with
// at least one re-execution per lost output, a lost count that never falls
// as the kill moves later and, for the coordinator, exactly the maps
// journaled by then re-attached.
func TestEveryFaultPoint(t *testing.T) {
	const eps = 1e-6
	for _, mode := range []Mode{Barrier, Pipelined} {
		for _, staged := range []bool{false, true} {
			run := func(kill func(*JobSpec)) (*Engine, *Result) {
				eng, job, f := faultSetup(mode, func(j *JobSpec) {
					j.Staged = staged
					if kill != nil {
						kill(j)
					}
				})
				return eng, eng.Run(job, f)
			}
			eng, base := run(nil)
			published := mapPublishTimes(eng)
			t.Logf("%v staged=%v: completion %.2f, publishes at %.2f", mode, staged, base.Completion, published)
			if len(published) != base.MapTasks || base.Failed {
				t.Fatalf("undisturbed run: %d map spans for %d maps, failed=%v", len(published), base.MapTasks, base.Failed)
			}
			points := []float64{eps}
			for _, at := range published {
				points = append(points, at+eps)
			}
			extra := map[string]float64{
				"mid-attempt": published[0] / 2,
				"reduce tail": (published[len(published)-1] + base.Completion) / 2,
			}
			for _, target := range []string{"worker 0", "coordinator"} {
				prev := -1 // lost / re-attached count at the previous k
				check := func(name string, at float64, ordered bool) {
					_, res := run(func(j *JobSpec) {
						if target == "worker 0" {
							j.KillWorkerAt = at
						} else {
							j.KillCoordinatorAt = at
						}
					})
					name = fmt.Sprintf("%v staged=%v %s killed %s (t=%.3f)", mode, staged, target, name, at)
					if res.Failed {
						t.Fatalf("%s: failed: %s", name, res.FailReason)
					}
					requireSameOutput(t, name, base.Output, res.Output)
					if res.Completion < base.Completion-1e-9 {
						t.Fatalf("%s: finished at %.4f, before the undisturbed %.4f", name, res.Completion, base.Completion)
					}
					if res.MapRetries < res.LostMapOutputs {
						t.Fatalf("%s: %d outputs lost, %d re-executions", name, res.LostMapOutputs, res.MapRetries)
					}
					n := res.LostMapOutputs
					if target == "coordinator" {
						n = res.ReattachedMaps
						journaled := sort.SearchFloat64s(published, at) // publishes before the crash
						if at >= base.Completion {
							journaled = 0 // the job had retired: nothing to recover
						}
						if n != journaled {
							t.Fatalf("%s: re-attached %d maps, %d were journaled", name, n, journaled)
						}
					}
					if !ordered {
						return
					}
					if n < prev {
						t.Fatalf("%s: count fell from %d to %d as the kill moved later", name, prev, n)
					}
					prev = n
				}
				for k, at := range points {
					check(fmt.Sprintf("after map publish %d", k), at, true)
				}
				for name, at := range extra {
					check(name, at, false)
				}
			}
		}
	}
}

// recordingPolicy remembers the live worker its inner policy last chose for
// every map.
type recordingPolicy struct {
	exec.Policy
	picks    int
	lastPick map[int]int // map index -> worker ID
}

func (p *recordingPolicy) Pick(t exec.TaskView, snaps []exec.WorkerSnapshot) int {
	n := p.Policy.Pick(t, snaps)
	if t.Map {
		p.picks++
		p.lastPick[t.Index] = snaps[n].ID
	}
	return n
}

// TestReexecutionFollowsPolicy pins the structural claim: with worker 0
// killed after the fifth map publishes, every map — the re-executed ones
// included — ends up where the job's Policy, asked over the core's live
// snapshots, last routed it, nothing is left on the dead node, and the
// result's MapRetries is the core's.
func TestReexecutionFollowsPolicy(t *testing.T) {
	for _, name := range []string{"", "least-loaded", "round-robin"} {
		eng, base := faultJob(t, Barrier, nil)
		base.drive(base.core.Admit)
		eng.K.Run()
		published := mapPublishTimes(eng)

		eng, jr := faultJob(t, Barrier, func(j *JobSpec) { j.KillWorkerAt = published[4] + 1e-6 })
		if pol, _ := exec.ParsePolicy(name); pol != nil {
			jr.sched.Policy = pol
		}
		rec := &recordingPolicy{Policy: jr.sched.Policy, lastPick: map[int]int{}}
		jr.sched.Policy = rec
		eng.K.Spawn("chaos-kill", jr.chaosKill)
		jr.drive(jr.core.Admit)
		eng.K.Run()

		res, sum := jr.res, jr.core.Summary()
		if res.Failed || !jr.done.Fired() {
			t.Fatalf("policy %q: killed run did not complete: %+v", name, res.FailReason)
		}
		requireSameOutput(t, name, base.res.Output, res.Output)
		if res.LostMapOutputs == 0 || res.MapRetries < res.LostMapOutputs {
			t.Fatalf("policy %q: lost %d outputs, %d re-executions", name, res.LostMapOutputs, res.MapRetries)
		}
		if res.MapRetries != sum.MapRetries {
			t.Fatalf("policy %q: Result.MapRetries %d, the core's Summary says %d", name, res.MapRetries, sum.MapRetries)
		}
		if rec.picks < len(jr.shuffle.maps)+sum.MapRetries {
			t.Fatalf("policy %q: %d maps and %d re-executions took only %d routing decisions", name, len(jr.shuffle.maps), sum.MapRetries, rec.picks)
		}
		for i, mo := range jr.shuffle.maps {
			if mo.lost || mo.node == jr.nodes[0] {
				t.Fatalf("policy %q: map %d's output is still on the dead node", name, i)
			}
			if got, want := mo.node.ID, rec.lastPick[i]; got != want {
				t.Fatalf("policy %q: map %d ran on node %d, the policy routed it to worker %d", name, i, got, want)
			}
		}
	}
}
