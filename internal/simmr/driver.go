package simmr

// The simulator's driver of exec's decision core — the second one, next to
// exec.Scheduler's goroutine driver. One jobRun per simulated job holds an
// exec.Core built from an exec.Scheduler value (one Assignment per pool node
// with the cluster's slot counts, Speculate from JobSpec.Speculative, a
// Policy, and for RunStream the stream's shared SlotPool). Every "which
// task, which node, when re-run, when clone" in a simulated run is the
// core's: the driver applies Admit / Settle / WorkerLost from sim.Procs and
// spawns exactly the launches Dispatch returns. What stays here is the
// simulator's own — the cost model (engine.go, reduce.go), the data-plane
// model (mapOutput.lost / redone, the staged fetch gate), and the
// injections: when worker 0 dies and what died with it, when the control
// plane is dark and what re-attach costs.

import (
	"errors"
	"fmt"

	"blmr/internal/cluster"
	"blmr/internal/exec"
	"blmr/internal/metrics"
	"blmr/internal/sim"
)

type jobRun struct {
	e       *Engine
	job     *JobSpec
	input   *File
	res     *Result
	shuffle *shuffleState
	done    *sim.Event
	nodes   []*cluster.Node // the job's pool: the core's worker i is nodes[i]
	sched   *exec.Scheduler
	core    *exec.Core
	// coordUp, non-nil when a coordinator kill is armed, fires once the
	// restarted control plane has finished replay + re-attach.
	coordUp *sim.Event
}

// newJobRun builds one prepared job's core over its pool nodes. A nil policy
// is the simulator's default placement; pool is the cross-job slot ledger of
// a stream (nil for a single job).
func (e *Engine) newJobRun(job *JobSpec, input *File, res *Result, pool *exec.SlotPool, pol exec.Policy) *jobRun {
	nodes := e.poolNodes(job)
	if pol == nil {
		pol = homePolicy{chunks: input.chunks, workers: job.Workers, pool: len(nodes)}
	}
	sched := &exec.Scheduler{Speculate: job.Speculative, Policy: pol, Pool: pool}
	for range nodes {
		sched.Workers = append(sched.Workers, exec.Assignment{
			MapSlots: e.Cfg.Cluster.MapSlots, ReduceSlots: e.Cfg.Cluster.ReduceSlots})
	}
	maps := make([]exec.MapTask, len(input.chunks))
	for i := range maps {
		maps[i].Index = i
	}
	return &jobRun{
		e: e, job: job, input: input, res: res, nodes: nodes, sched: sched,
		shuffle: newShuffleState(e.K, len(input.chunks), job.Reducers),
		done:    sim.NewEvent(e.K, "job-done"),
		core:    exec.NewCore(sched, maps, exec.ReduceTasks(job.Reducers)),
	}
}

// homePolicy is the simulator's default placement, asked like any other
// exec.Policy over the core's live-worker snapshots: a map runs on its
// chunk's primary (whole cluster) or on pool node index mod Workers, a
// reduce on partition mod pool — and once that node is dead, on index mod
// the live nodes.
type homePolicy struct {
	chunks  []*chunk
	workers int // JobSpec.Workers: 0 places maps by chunk locality
	pool    int
}

func (homePolicy) Name() string { return "home" }

func (h homePolicy) Pick(t exec.TaskView, snaps []exec.WorkerSnapshot) int {
	home := t.Index % h.pool
	if t.Map && h.workers == 0 {
		home = h.chunks[t.Index].primary().ID
	}
	for i, s := range snaps {
		if s.ID == home {
			return i
		}
	}
	return t.Index % len(snaps)
}

// drive is the one dispatch path: apply an event to the core, spawn what the
// core then decides to start, and finish the job once the core has settled.
// While the control plane is dark, events still land but nothing is
// dispatched; coordKill drives once more when it is back.
func (jr *jobRun) drive(event func()) {
	if event != nil {
		event()
	}
	now := jr.e.K.Now()
	if !jr.dark(now) {
		for _, l := range jr.core.Dispatch() {
			name := fmt.Sprintf("reduce-%d", l.Pos)
			if l.Map() {
				name = fmt.Sprintf("map-%d.%d", l.Pos, l.Attempt)
			}
			jr.e.K.Spawn(name, func(p *sim.Proc) { jr.attempt(p, l) })
		}
	}
	if !jr.core.Settled() || jr.done.Fired() {
		return
	}
	if err := jr.core.Err(); err != nil {
		failJob(jr.res, now, err.Error())
	} else {
		jr.res.Completion = now
	}
	sum := jr.core.Summary()
	jr.res.MapRetries, jr.res.BackupsLaunched, jr.res.BackupsWon = sum.MapRetries, sum.BackupsLaunched, sum.BackupsWon
	jr.done.Fire()
}

// mustBeDone fails a job the drained kernel left unfinished: nothing is
// running and nothing will be dispatched, so it would otherwise read as a
// job that completed at time zero.
func (jr *jobRun) mustBeDone() {
	if !jr.done.Fired() {
		failJob(jr.res, jr.e.K.Now(), fmt.Sprintf("job %q wedged: the simulation ran out of events with it unfinished", jr.job.Name))
	}
}

// attempt runs one launch on its node and drives the outcome back in.
func (jr *jobRun) attempt(p *sim.Proc, l exec.Launch) {
	var unjournaled bool
	var err error
	if l.Map() {
		unjournaled, err = jr.runMap(p, l)
	} else {
		err = jr.runReduce(p, l)
	}
	if jr.sched.Pool != nil {
		jr.sched.Pool.Release(l.Worker(), l.Map())
	}
	jr.drive(func() {
		jr.core.Settle(l, exec.MapStats{}, exec.ReduceResult{}, err)
		if unjournaled {
			// The output exists but no coordinator recorded it: the
			// restarted one resubmits the map.
			jr.core.WorkerLost(-1, []int{l.Pos})
		}
	})
}

var errNodeKilled = errors.New("node killed (JobSpec.KillWorkerAt)")

// runMap executes one map attempt on its node — read the chunk, run the
// real mapper, partition, write to local disk — and reports how it ended:
// published to the shuffle service (nil), lost with its worker (a
// WorkerLostError: the kill injection took the node while the attempt ran,
// so its output died unpublished), or finished with no coordinator to
// report to (unjournaled: the attempt spanned the crash injection, its
// completion was never journaled, and only journaled maps re-attach).
func (jr *jobRun) runMap(p *sim.Proc, l exec.Launch) (unjournaled bool, err error) {
	e, job := jr.e, jr.job
	node, ch := jr.nodes[l.Worker()], jr.input.chunks[l.Pos]
	started := p.Now()
	tok := e.Col.TaskStart(metrics.StageMap, started)

	// Memoized map outputs skip the read and the map computation entirely;
	// only the cached output's local disk read is charged.
	var memoKeyStr string
	var entry *memoEntry
	if e.Cfg.Memo != nil {
		memoKeyStr = memoKey(job.Name, job.Reducers, compressRatio(job), ch.records)
		if hit, ok := e.Cfg.Memo.lookup(memoKeyStr); ok {
			node.DiskRead(p, hit.outDisk)
			jr.res.MemoHits++
			entry = hit
		}
	}
	computed := entry == nil
	if computed {
		entry = e.runMapAttempt(p, job, ch, node)
		jr.res.SpillRuns += entry.spillRuns
	}
	e.Col.TaskEnd(tok, p.Now())

	switch {
	case jr.nodeDead(node, p.Now()):
		return false, &exec.WorkerLostError{Worker: fmt.Sprintf("node-%d", node.ID), Err: errNodeKilled}
	case jr.coordUp != nil && started < job.KillCoordinatorAt && p.Now() >= job.KillCoordinatorAt:
		jr.coordUp.Wait(p)
		return true, nil
	}
	if computed && e.Cfg.Memo != nil {
		e.Cfg.Memo.insert(memoKeyStr, entry)
	}
	e.publishMapOutput(p.Now(), node, jr.shuffle, jr.shuffle.maps[l.Pos], entry, jr.res)
	return false, nil
}

// runReduce executes one reduce attempt on its node.
func (jr *jobRun) runReduce(p *sim.Proc, l exec.Launch) error {
	node := jr.nodes[l.Worker()]
	if jr.job.Mode == Barrier {
		jr.e.barrierReduce(p, jr.job, l.Pos, node, jr.shuffle, jr.res)
		return nil
	}
	err := jr.e.pipelinedReduce(p, jr.job, l.Pos, node, jr.shuffle, jr.res)
	if err != nil {
		failJob(jr.res, p.Now(), err.Error()) // the bare reason, before the core wraps it
	}
	return err
}

// nodeDead reports whether node is the killed worker (pool node 0) and the
// kill has already happened at virtual time now.
func (jr *jobRun) nodeDead(node *cluster.Node, now float64) bool {
	return jr.job.KillWorkerAt > 0 && node == jr.nodes[0] && now >= jr.job.KillWorkerAt
}

// chaosKill is the injected worker death (JobSpec.KillWorkerAt): at the kill
// time every published map output living on pool node 0 is marked lost —
// fetchers that reach one park until a replacement republishes
// (mapOutput.redone) — and the core is told the worker is gone and which
// outputs went with it. What re-runs, and where, is the core's answer.
// Map attempts in flight on the node report their own loss when they end
// (runMap); its reduce attempts are modelled as surviving (DESIGN §11).
func (jr *jobRun) chaosKill(p *sim.Proc) {
	p.Sleep(jr.job.KillWorkerAt)
	if jr.done.Fired() {
		return // the job already finished (or failed): nothing to lose
	}
	var lost []int
	for i, mo := range jr.shuffle.maps {
		if mo.done.Fired() && mo.node == jr.nodes[0] {
			mo.lost = true
			lost = append(lost, i)
		}
	}
	jr.res.LostMapOutputs = len(lost)
	jr.drive(func() { jr.core.WorkerLost(0, lost) })
}

// dark reports whether the control plane is down at virtual time now: a
// coordinator kill is armed, the crash has happened, and the restarted
// coordinator has not yet finished replay + re-attach.
func (jr *jobRun) dark(now float64) bool {
	return jr.coordUp != nil && now >= jr.job.KillCoordinatorAt && !jr.coordUp.Fired()
}

// coordKill is the injected coordinator crash (JobSpec.KillCoordinatorAt):
// at the kill time the control plane goes dark; after the fixed restart
// outage plus a per-map re-attach cost for every output journaled before
// the crash, it returns and dispatches what queued up meanwhile. Published
// outputs survive on their workers' sealed runs (the data plane outlives
// the coordinator) and are re-attached rather than re-executed; attempts
// that span the crash are resubmitted (runMap). This is the simulated
// counterpart of the service journal + sealed-run re-attach recovery
// (DESIGN §14).
func (jr *jobRun) coordKill(p *sim.Proc) {
	p.Sleep(jr.job.KillCoordinatorAt)
	if jr.done.Fired() {
		jr.coordUp.Fire() // job already retired: nothing to recover
		return
	}
	jr.res.CoordRestarts++
	for _, mo := range jr.shuffle.maps {
		if mo.done.Fired() && !mo.lost {
			jr.res.ReattachedMaps++
		}
	}
	p.Sleep(jr.job.Costs.CoordRestartDelay + float64(jr.res.ReattachedMaps)*jr.job.Costs.ReattachPerMap)
	jr.coordUp.Fire()
	jr.drive(nil)
}
