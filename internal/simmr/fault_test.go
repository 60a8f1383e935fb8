package simmr

import (
	"testing"

	"blmr/internal/apps"
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
