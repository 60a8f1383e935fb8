package mpexec

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
)

// Coordinator drives multi-process job execution. It listens for worker
// registrations, then schedules map and reduce tasks over the registered
// workers through the same exec.Scheduler the in-process engine uses. By
// default the two waves overlap: reduce tasks are dispatched at job start
// and every completed map's sealed-run metadata is streamed to them as 'S'
// pushes, so reducers fetch and consume runs while later maps are still
// running — the cross-wave overlap the paper's pipelined mode is about,
// now across process boundaries. exec.Options.Staged restores the PR-3
// back-to-back waves (the baseline the overlap benchmarks compare against).
// Each worker's control connection is demultiplexed by a reader goroutine,
// so one worker can carry a map task, a reduce task and segment pushes
// concurrently.
//
// The coordinator is multi-tenant: a Service's jobs may overlap, and every
// admitted job runs on the same worker pool under its own job ID. Per-job
// state (routes, active reduce tasks, spill accounting) lives in a jobRun;
// the Service's shared SlotPool bounds cross-job per-worker concurrency,
// and a pluggable exec.Policy places each job's tasks over live-worker
// snapshots. Run is the single-job special case.
//
// Worker death is a non-event, not a job failure, as long as one worker
// survives: a closed control connection or missedBeats silent heartbeat
// intervals (one fixed pool-wide bound, never a job's option) marks the
// worker dead, every admitted job's scheduler requeues its in-flight tasks
// on survivors, and completed maps whose sealed runs died with the worker
// are re-executed — with invalidation and supersede 'S' pushes re-routing
// any parked reduce task to the new attempt's segments.
// exec.Options.Speculative additionally clones straggler maps near the end
// of the wave; attempt IDs keep every duplicate or re-executed route
// idempotent, so barrier output stays byte-identical through churn (map
// tasks are deterministic: re-running one on identical input yields
// identical output bytes).
type Coordinator struct {
	ln net.Listener

	mu      sync.Mutex
	workers []*remoteWorker
	jobs    map[int]*jobRun // admitted job id -> its run state
	nextJob int

	monMu   sync.Mutex // heartbeat monitor lifecycle (refcounted by jobs)
	monRefs int
	monStop chan struct{}
}

// jobConfig is what a Service adds to one job on its shared pool. The zero
// value is the single-job case: no cross-job cap, work-stealing dispatch, a
// fresh job ID, nothing journaled. Every job gets one map slot per worker
// and, unless Staged, its whole reduce wave dispatched up front.
type jobConfig struct {
	// pool, when set, counts running tasks per worker across every job
	// sharing it and caps the maps. All jobs sharing a pool see the same worker indexes
	// (registration order), so the ledger lines up.
	pool *exec.SlotPool
	// policy, when set, routes this job's tasks over per-worker load
	// snapshots (see exec.ParsePolicy). Nil keeps work-stealing dispatch.
	policy exec.Policy

	// ticket tags this job's journal records with its service submission
	// ID. Only read when journal is set.
	ticket uint64
	// journal, when set, receives one record per durable state transition —
	// job started, map attempt completed, reduce partition completed — for
	// the owning Service to append to its write-ahead log. Called outside
	// the coordinator lock, possibly from several task goroutines at once;
	// the appender serializes.
	journal func(r *journalRecord)
	// reattach carries a resumed job's replayed journal state. A journaled
	// job ID (> 0; IDs start at 1) admits the job under that ID instead of a
	// fresh one, so a returning worker's surviving per-job state (spill
	// directory, sealed runs) lines up with the re-entered job. Completed
	// maps are matched against returning workers' 'A' advertisements and
	// re-attached into the routing table (or re-executed when the worker or
	// its files are gone), completed reduce outputs are spliced into the
	// result without re-running (their bytes were journaled), and the
	// scheduler's attempt counter starts past every re-attachable attempt.
	reattach *journalJob
}

// jobRun is one admitted job's coordinator-side state.
type jobRun struct {
	id     int
	c      *Coordinator
	nMaps  int
	nParts int          // reduce partitions: every wave carries one span per partition
	jws    []*jobWorker // per-worker proxies, by worker registration index
	cfg    jobConfig

	// Under c.mu:
	routes map[int]*mapRoute // map task index -> its winning route
	active map[int]*jobWorker
	sched  *exec.Scheduler
}

// Listen opens the coordinator's registration listener on an ephemeral
// loopback port.
func Listen() (*Coordinator, error) { return ListenOn("127.0.0.1:0") }

// ListenOn opens the registration listener on an explicit address (e.g.
// ":0" to accept workers from other hosts; their run-servers then bind all
// interfaces too and advertise a dialable host).
func ListenOn(bind string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("mpexec: listen: %w", err)
	}
	return &Coordinator{ln: ln, jobs: make(map[int]*jobRun), nextJob: 1}, nil
}

// SetMinJobID places the auto-assigned job ID counter at or past id, so a
// resuming service's fresh jobs never collide with journaled IDs. Call
// before any job is admitted.
func (c *Coordinator) SetMinJobID(id int) {
	c.mu.Lock()
	if c.nextJob < id {
		c.nextJob = id
	}
	c.mu.Unlock()
}

// registered snapshots the worker pool, dead workers included, in
// registration order.
func (c *Coordinator) registered() []*remoteWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.workers)
}

// Addr returns the address workers dial (pass it to Serve / -worker-coord).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// WaitWorkers blocks until n workers have registered or the timeout lapses.
// Each registered worker gets a reader goroutine that routes its reply
// frames until the connection closes.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		have := len(c.workers)
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		if tl, ok := c.ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(deadline)
		}
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("mpexec: waiting for worker %d/%d: %w", have+1, n, err)
		}
		if err := c.register(conn); err != nil {
			_ = conn.Close()
			return err
		}
	}
}

// Close severs every worker connection (after sending a best-effort bye)
// and stops the listener and heartbeat monitor. Workers exit when their
// control connection ends; reader goroutines exit with their connections.
func (c *Coordinator) Close() error {
	for _, w := range c.registered() {
		_ = w.send(msgBye, nil)
		_ = w.conn.Close()
	}
	return c.ln.Close()
}

// Abandon simulates a coordinator crash for restart tests and benchmarks:
// the listener and every worker connection drop with no bye handshake and
// no job teardown — exactly what SIGKILL leaves behind. Workers keep their
// spill directories and sealed runs and re-dial with backoff; in-flight
// jobs on this side fail with worker-lost errors. The Coordinator is dead
// afterwards.
func (c *Coordinator) Abandon() {
	_ = c.ln.Close()
	for _, w := range c.registered() {
		_ = w.conn.Close()
	}
}

// Run executes one job by itself — the single-tenant entry point of the CLI
// batch mode; a Service runs the same path with its pool and journal set.
func (c *Coordinator) Run(job exec.Job, input []core.Record, opts exec.Options) (*mr.Result, error) {
	return c.runJob(job, input, opts, jobConfig{})
}

// runJob executes job over input across the registered workers and returns
// the assembled result. opts follow mr.Options semantics; the transport is
// forcibly the TCP run exchange (the only one that crosses process
// boundaries). Concurrent calls share the pool: each admitted job gets its
// own job ID, per-worker state and scheduler, while cfg's slot pool and
// policy arbitrate the shared workers. Workers that die mid-job (killed
// process, closed control connection, missed heartbeats) have their tasks
// re-executed on survivors; the job fails only when no live worker remains,
// a task exhausts its attempt budget, or a task fails for a non-liveness
// reason.
func (c *Coordinator) runJob(job exec.Job, input []core.Record, opts exec.Options, cfg jobConfig) (*mr.Result, error) {
	opts.Transport = shuffle.TCP
	opts.Normalize()
	if err := mr.Validate(job, opts); err != nil {
		return nil, err
	}
	ws := c.registered()
	live := 0
	for _, w := range ws {
		if !w.isDead() {
			live++
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("mpexec: no live workers registered")
	}
	start := time.Now()
	// Staged mode keeps one reduce slot per worker (reduce tasks do all
	// their work the moment they are dispatched). Overlapped reduce tasks
	// spend the map runway parked on segment pushes — a blocked goroutine
	// on the worker — so the whole reduce wave is dispatched up front,
	// mirroring the in-process engine's all-partitions-concurrent
	// scheduling; reducers then consume each map's output the moment it is
	// routed instead of queueing behind a single slot.
	redSlots := 1
	if !opts.Staged {
		redSlots = (opts.Reducers + live - 1) / live
	}
	maps := exec.SplitMaps(input, opts.Mappers)

	// Admit the job: assign its ID, build its per-worker proxies (every
	// registered worker, in registration order, so concurrent jobs sharing
	// a SlotPool index the same ledger slots; a dead worker's proxy fails
	// dispatches fast and the scheduler routes around it), and register it
	// for worker-lost fan-out.
	c.mu.Lock()
	id := c.nextJob
	if ra := cfg.reattach; ra != nil && ra.jobID > 0 {
		id = ra.jobID
		if other := c.jobs[id]; other != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("mpexec: job ID %d already admitted", id)
		}
	}
	if c.nextJob <= id {
		c.nextJob = id + 1
	}
	jr := &jobRun{
		id: id, c: c, nMaps: len(maps), nParts: opts.Reducers,
		routes: make(map[int]*mapRoute, len(maps)),
		active: make(map[int]*jobWorker), cfg: cfg,
	}
	jr.jws = make([]*jobWorker, len(ws))
	assignments := make([]exec.Assignment, len(ws))
	for i, w := range ws {
		jw := &jobWorker{j: jr, w: w, dials: w.fetchDials, dialsBase: w.fetchDials,
			opens: w.serverOpens, opensBase: w.serverOpens}
		jr.jws[i] = jw
		assignments[i] = exec.Assignment{W: jw, MapSlots: 1, ReduceSlots: redSlots}
	}
	var preMaps []int
	var preReds map[int]exec.ReduceResult
	firstAttempt := 0
	if ra := cfg.reattach; ra != nil {
		firstAttempt, preReds = ra.firstAttempt(), ra.reduces
		preMaps = jr.reattach(ws, ra.maps)
	}
	// One scheduler drives both waves in both modes (Staged gates reduce
	// dispatch internally), so worker-lost requeues and map resubmissions
	// work identically during the map runway and the reduce tail.
	jr.sched = &exec.Scheduler{
		Workers:        assignments,
		OnFail:         jr.abort,
		Staged:         opts.Staged,
		Speculate:      opts.Speculative,
		Policy:         cfg.policy,
		Pool:           cfg.pool,
		Resident:       jr.resident,
		PreDoneMaps:    preMaps,
		PreDoneReduces: preReds,
		FirstAttempt:   firstAttempt,
	}
	c.jobs[id] = jr
	c.mu.Unlock()
	// 's' binds the service ticket to the coordinator job ID. Re-appended on
	// resume with the same ID — replay is idempotent on it.
	jr.journal(&journalRecord{kind: jStart, id: id})
	defer func() {
		c.mu.Lock()
		delete(c.jobs, id)
		c.mu.Unlock()
		// Close the job on every worker (best-effort): its spill directory
		// and sealed runs are removed once in-flight tasks drain.
		end := encode(&jobEnd{id})
		for _, w := range ws {
			if !w.isDead() {
				_ = w.send(msgJobEnd, end)
			}
		}
	}()
	// Open the job on every live worker: the 'J' frame names the user code
	// and ships the option subset task bodies must agree on. A worker whose
	// connection is already broken fails here and is declared dead; its
	// tasks go to the survivors.
	open := encode(&jobStart{id, job.Name, opts})
	for _, w := range ws {
		if w.isDead() {
			continue
		}
		if err := w.send(msgJobStart, open); err != nil {
			w.die(fmt.Errorf("worker %s: open job: %w", w, err))
		}
	}
	c.startMonitor()
	defer c.stopMonitor()

	sum, err := jr.sched.Run(maps, exec.ReduceTasks(opts.Reducers))
	if err != nil {
		return nil, fmt.Errorf("mpexec: job %q: %w", job.Name, err)
	}

	res := mr.Assemble(sum)
	c.mu.Lock()
	for _, jw := range jr.jws {
		res.SpilledBytes += jw.spilledBytes
		res.RawSpillBytes += jw.rawSpilledBytes
		// Deltas of the worker's lifetime fetch-pool dial and run-server open
		// counts (never negative: the job's maxima start at the bases).
		// Approximate under concurrent jobs — overlapping jobs may each claim
		// a dial the other triggered (DESIGN §12) — and an undercount of
		// opens when a worker's server keeps serving peers after its own last
		// reply.
		res.FetchDials += jw.dials - jw.dialsBase
		res.ServerOpens += jw.opens - jw.opensBase
	}
	c.mu.Unlock()
	res.CompressedSpillBytes = res.SpilledBytes
	res.Wall = time.Since(start)
	return res, nil
}

// startMonitor runs the heartbeat monitor while at least one job is
// admitted: the first job starts it, the last job's exit stops it.
func (c *Coordinator) startMonitor() {
	c.monMu.Lock()
	defer c.monMu.Unlock()
	c.monRefs++
	if c.monRefs == 1 {
		c.monStop = make(chan struct{})
		go c.monitor(heartbeatInterval, c.monStop)
	}
}

func (c *Coordinator) stopMonitor() {
	c.monMu.Lock()
	defer c.monMu.Unlock()
	c.monRefs--
	if c.monRefs == 0 {
		close(c.monStop)
		c.monStop = nil
	}
}

// monitor closes the connection of any worker silent for missedBeats
// heartbeat intervals, funneling slow deaths (wedged process, dropped
// network) into the same readLoop-exit path a killed process takes.
func (c *Coordinator) monitor(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for _, w := range c.registered() {
				if w.isDead() {
					continue
				}
				if now-w.lastBeat.Load() > int64(missedBeats*interval) {
					// The readLoop unblocks with an error and declares the
					// worker dead.
					_ = w.conn.Close()
				}
			}
		}
	}
}

// abort tells every worker to fail this job's in-flight reduce sources (the
// scheduler's OnFail): reduce tasks blocked waiting for segment pushes that
// will never come wake up and error out, so a genuine task failure drains
// the job promptly instead of wedging the overlap. Other jobs on the pool
// are untouched.
func (jr *jobRun) abort(err error) {
	msg := encode(&abort{jr.id, err.Error()})
	for _, jw := range jr.jws {
		_ = jw.w.send(msgAbort, msg) // best-effort; dead workers are already failing
	}
}

// journal hands one durable state transition of this job to the owning
// Service's write-ahead log, under the job's ticket. A job nobody journals
// drops it.
func (jr *jobRun) journal(r *journalRecord) {
	if jr.cfg.journal != nil {
		r.ticket = jr.cfg.ticket
		jr.cfg.journal(r)
	}
}

// resident reports how many of this job's valid map routes worker w owns —
// the locality policy's signal for placing reduce tasks next to the sealed
// runs they will fetch.
func (jr *jobRun) resident(w int, _ exec.TaskView) int {
	c := jr.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w < 0 || w >= len(jr.jws) {
		return 0
	}
	rw := jr.jws[w].w
	n := 0
	for _, rt := range jr.routes {
		if rt.valid && rt.w == rw {
			n++
		}
	}
	return n
}
