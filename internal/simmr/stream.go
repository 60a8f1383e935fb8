package simmr

// Multi-job streams on one simulated cluster: the simulated mirror of the
// multi-process engine's job service. RunStream admits a stream of jobs at
// their arrival times onto ONE shared kernel and cluster, runs each through
// its own exec decision core over one shared exec.SlotPool — the structure
// mpexec.Service gives its jobs — and reports per-job completions plus the
// stream makespan, so harness.PolicySweep can tune placement policies
// entirely in simulation and a real-engine parity test can pin the
// predictions.

import (
	"fmt"

	"blmr/internal/exec"
	"blmr/internal/sim"
)

// StreamJob is one submission in a simulated job stream.
type StreamJob struct {
	// Spec is the job. Workers confines it to the pool prefix exactly as in
	// single-job runs; KillWorkerAt is not supported in streams (churn
	// prediction stays a single-job experiment, DESIGN §11).
	Spec JobSpec
	// Input is the job's ingested HDFS file.
	Input *File
	// Arrival is the submission's virtual arrival time (seconds).
	Arrival float64
}

// StreamResult reports one simulated job stream.
type StreamResult struct {
	// Jobs holds each submission's result, in submission order.
	Jobs []*Result
	// Makespan is the last job's completion time (arrivals measure from 0).
	Makespan float64
}

// RunStream executes a stream of jobs on the shared cluster, placing every
// task through the named policy (see exec.PolicyNames; "" uses the
// simulator's default placement). Each job gets its own decision core and a
// fresh policy instance — mirroring the real service, where a round-robin
// cursor never leaks placement across jobs — and all of them share one
// exec.SlotPool capped at the cluster's map slots per node, exactly as the
// jobs of an mpexec.Service do: a task holds its pool slot while it runs and
// no longer, a least-loaded policy sees the kind-split load every job put on
// a node in the snapshots the core builds, and a map held back at a node's
// cross-job cap starts when any job's map there finishes (parked jobs are
// woken in arrival order). Resident-run counts are zero (the simulator wires
// no Scheduler.Resident), so the locality policy degrades to least-loaded
// here, as it does for the real engine's initial assignments.
//
// The engine must be fresh (its kernel is drained here, as in Run).
func (e *Engine) RunStream(jobs []StreamJob, policyName string) (*StreamResult, error) {
	if _, err := exec.ParsePolicy(policyName); err != nil {
		return nil, err
	}
	for ji := range jobs {
		if jobs[ji].Spec.KillWorkerAt > 0 {
			return nil, fmt.Errorf("simmr: stream job %d: KillWorkerAt is not supported in streams", ji)
		}
	}
	sr := &StreamResult{Jobs: make([]*Result, len(jobs))}
	pool := exec.NewSlotPool(len(e.C.Nodes), e.Cfg.Cluster.MapSlots)
	for ji, sj := range jobs {
		pol, _ := exec.ParsePolicy(policyName) // validated above; fresh per job
		e.K.Spawn(fmt.Sprintf("stream-job-%d", ji), func(p *sim.Proc) {
			if sj.Arrival > 0 {
				p.Sleep(sj.Arrival)
			}
			spec := sj.Spec
			res := e.prepare(&spec, sj.Input)
			sr.Jobs[ji] = res
			if res.Failed {
				return
			}
			jr := e.newJobRun(&spec, sj.Input, res, pool, pol)
			defer pool.Subscribe(func() { jr.drive(nil) })()
			defer jr.mustBeDone() // also when the drained kernel aborts the wait
			jr.drive(jr.core.Admit)
			jr.done.Wait(p)
		})
	}
	e.K.Run()
	var maxDone float64
	for _, r := range sr.Jobs {
		if r != nil && r.Completion > maxDone {
			maxDone = r.Completion
		}
	}
	sr.Makespan = maxDone
	e.Col.CloseAll(maxDone)
	return sr, nil
}
