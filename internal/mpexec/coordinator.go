package mpexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
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

	// jobID, when > 0, admits the job under this explicit coordinator job
	// ID instead of assigning a fresh one — the resume path: keeping the
	// journaled ID lets a returning worker's surviving per-job state (spill
	// directory, sealed runs) line up with the re-entered job. Job IDs
	// start at 1, so 0 always means "assign".
	jobID int
	// ticket tags this job's journal records with its service submission
	// ID. Only read when journal is set.
	ticket uint64
	// journal, when set, receives one encoded record per durable state
	// transition — job started, map attempt completed, reduce partition
	// completed — for the owning Service to append to its write-ahead log.
	// Called outside the coordinator lock, possibly from several task
	// goroutines at once; the appender serializes.
	journal func(rec []byte)
	// reattach carries a resumed job's replayed journal state: completed
	// maps are matched against returning workers' 'A' advertisements and
	// re-attached into the routing table (or re-executed when the worker or
	// its files are gone), completed reduce outputs are spliced into the
	// result without re-running, and the scheduler's attempt counter starts
	// past every journaled attempt.
	reattach *reattachState
}

// jobRun is one admitted job's coordinator-side state.
type jobRun struct {
	id      int
	c       *Coordinator
	name    string
	nMaps   int
	jws     []*jobWorker // per-worker proxies, by worker registration index
	ticket  uint64       // journal tag (meaningful only when journal != nil)
	journal func(rec []byte)

	// Under c.mu:
	routes map[int]*mapRoute // map task index -> its winning route
	active map[int]*jobWorker
	sched  *exec.Scheduler
}

// mapRoute is one map task's current sealed-run location: the attempt that
// produced the waves and the worker serving them. A route invalidates
// (valid=false) when its worker dies; the map index re-enters the scheduler
// and a later attempt's completion replaces the route.
type mapRoute struct {
	w       *remoteWorker
	attempt int
	waves   []shuffle.Wave
	valid   bool
}

// pendKey identifies one awaited reply: the job, the reply kind ('m' or
// 'r'), and the task id (map index or partition).
type pendKey struct {
	job  int
	kind byte
	id   int
}

// asyncReply is one routed reply frame (or the task's failure).
type asyncReply struct {
	payload []byte
	err     error
}

// remoteWorker proxies one worker process. Writes are serialized by wmu;
// replies are routed to awaiting callers by the reader goroutine, so
// multiple tasks — across multiple jobs — can be in flight on one
// connection. Job-scoped scheduling state lives in jobWorker.
type remoteWorker struct {
	c    *Coordinator
	id   int
	name string
	conn net.Conn
	br   *bufio.Reader
	addr string // the worker's run-server

	wmu sync.Mutex // serializes frame writes

	lastBeat atomic.Int64 // unix nanos of the last frame received

	pmu     sync.Mutex
	pending map[pendKey]chan asyncReply
	dead    chan struct{} // closed when the worker is declared dead
	deadErr error

	// fetchDials and serverOpens are the worker's lifetime fetch-pool dial
	// and run-server os.Open totals from its latest reply (written under
	// c.mu); jobs snapshot them at admission to report per-job deltas.
	fetchDials  int64
	serverOpens int64

	// sealed is the worker's 'A' re-attach advertisement, captured at
	// registration and immutable after: job ID -> surviving sealed-run file
	// ID -> on-disk CRC-32C. Empty for fresh workers; a restarted
	// coordinator matches it against its replayed journal.
	sealed map[int]map[uint64]uint32
}

// jobWorker binds one remoteWorker into one job as an exec.Worker: it tags
// every frame with the job ID and keeps the job's share of the worker's
// spill/dial accounting. All fields beyond the bindings are under c.mu.
type jobWorker struct {
	j *jobRun
	w *remoteWorker

	spilledBytes    int64
	rawSpilledBytes int64
	dials           int64 // max lifetime dial count seen in this job's replies
	dialsBase       int64 // lifetime dial count when the job was admitted
	opens           int64 // max lifetime server-open count seen in this job's replies
	opensBase       int64 // lifetime server-open count when the job was admitted
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
		br := bufio.NewReader(conn)
		typ, payload, err := readMsg(br)
		if err != nil || typ != msgHello {
			_ = conn.Close()
			return fmt.Errorf("mpexec: bad registration (type %q): %v", typ, err)
		}
		d := &dec{buf: payload}
		addr := d.str()
		name := d.str()
		if d.err != nil {
			_ = conn.Close()
			return fmt.Errorf("mpexec: bad hello: %w", d.err)
		}
		// Every hello is followed by an 'A' re-attach advertisement (empty
		// for fresh workers), read synchronously before the reader goroutine
		// takes over the connection.
		typ, payload, err = readMsg(br)
		if err != nil || typ != msgReattach {
			_ = conn.Close()
			return fmt.Errorf("mpexec: bad re-attach advertisement (type %q): %v", typ, err)
		}
		sealed, err := decodeReattach(payload)
		if err != nil {
			_ = conn.Close()
			return fmt.Errorf("mpexec: bad re-attach advertisement: %w", err)
		}
		c.mu.Lock()
		w := &remoteWorker{
			c: c, id: len(c.workers), name: name, conn: conn, br: br, addr: addr,
			pending: make(map[pendKey]chan asyncReply),
			dead:    make(chan struct{}),
			sealed:  sealed,
		}
		if w.name == "" {
			w.name = fmt.Sprintf("worker-%d", w.id)
		}
		w.lastBeat.Store(time.Now().UnixNano())
		c.workers = append(c.workers, w)
		c.mu.Unlock()
		go w.readLoop()
	}
}

// Close severs every worker connection (after sending a best-effort bye)
// and stops the listener and heartbeat monitor. Workers exit when their
// control connection ends; reader goroutines exit with their connections.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	ws := append([]*remoteWorker(nil), c.workers...)
	c.mu.Unlock()
	for _, w := range ws {
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
	c.mu.Lock()
	ws := append([]*remoteWorker(nil), c.workers...)
	c.mu.Unlock()
	_ = c.ln.Close()
	for _, w := range ws {
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
	c.mu.Lock()
	ws := append([]*remoteWorker(nil), c.workers...)
	c.mu.Unlock()
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
	if cfg.jobID > 0 {
		id = cfg.jobID
		if other := c.jobs[id]; other != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("mpexec: job ID %d already admitted", id)
		}
	}
	if c.nextJob <= id {
		c.nextJob = id + 1
	}
	jr := &jobRun{
		id: id, c: c, name: job.Name, nMaps: len(maps),
		routes: make(map[int]*mapRoute, len(maps)),
		active: make(map[int]*jobWorker),
		ticket: cfg.ticket, journal: cfg.journal,
	}
	jr.jws = make([]*jobWorker, len(ws))
	assignments := make([]exec.Assignment, len(ws))
	for i, w := range ws {
		jw := &jobWorker{j: jr, w: w, dials: w.fetchDials, dialsBase: w.fetchDials,
			opens: w.serverOpens, opensBase: w.serverOpens}
		jr.jws[i] = jw
		assignments[i] = exec.Assignment{W: jw, MapSlots: 1, ReduceSlots: redSlots}
	}
	// Resume: re-attach journaled completed maps whose sealed runs survived
	// on a returning worker (matched by worker name and the full fileID/CRC
	// set of the map's waves, against the 'A' advertisement captured at
	// registration). Matches are pre-installed as valid routes — reduce
	// tasks see them in their 'R' snapshots — and marked done for the
	// scheduler; misses simply re-execute. Journaled reduce outputs are
	// spliced in wholesale (their bytes were journaled).
	var preMaps []int
	var preReds map[int]exec.ReduceResult
	firstAttempt := 0
	if ra := cfg.reattach; ra != nil {
		firstAttempt = ra.firstAttempt
		preReds = ra.reduces
		for m, jm := range ra.maps {
			if m < 0 || m >= len(maps) {
				continue
			}
			w := matchReattach(ws, id, jm)
			if w == nil {
				continue
			}
			waves := make([]shuffle.Wave, len(jm.waves))
			for i, wv := range jm.waves {
				wv.Addr = w.addr
				waves[i] = wv
			}
			jr.routes[m] = &mapRoute{w: w, attempt: jm.attempt, waves: waves, valid: true}
			preMaps = append(preMaps, m)
		}
		sort.Ints(preMaps)
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
	if jr.journal != nil {
		// 's' binds the service ticket to the coordinator job ID. Re-appended
		// on resume with the same ID — replay is idempotent on it.
		jr.journal(encodeJournalStart(jr.ticket, id))
	}
	defer func() {
		c.mu.Lock()
		delete(c.jobs, id)
		c.mu.Unlock()
		// Close the job on every worker (best-effort): its spill directory
		// and sealed runs are removed once in-flight tasks drain.
		end := binary.AppendUvarint(nil, uint64(id))
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
	open := encodeJobStart(id, job.Name, opts)
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
		if jw.dials > jw.dialsBase {
			// Approximate under concurrent jobs: the dial counter is the
			// worker pool's lifetime total, so overlapping jobs may each
			// claim a dial the other triggered (documented in DESIGN §12).
			res.FetchDials += jw.dials - jw.dialsBase
		}
		if jw.opens > jw.opensBase {
			// Same lifetime-total discipline for the run-server's handle-cache
			// misses (mr.Result.ServerOpens): approximate under concurrent
			// jobs, and an undercount when a worker's server keeps serving
			// peers after its own last reply.
			res.ServerOpens += jw.opens - jw.opensBase
		}
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
			c.mu.Lock()
			ws := append([]*remoteWorker(nil), c.workers...)
			c.mu.Unlock()
			for _, w := range ws {
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

// workerLost reacts to a worker's death, for every admitted job: invalidate
// the routes it served, tell each job's surviving reduce tasks to drop them
// (so fetches park instead of erroring against a dead run-server), and hand
// the affected map indexes back to the job's scheduler for re-execution.
func (c *Coordinator) workerLost(w *remoteWorker) {
	type push struct {
		jw   *jobWorker
		part int
	}
	type lostJob struct {
		id       int
		jw       *jobWorker // the dead worker's proxy in this job
		sched    *exec.Scheduler
		affected []int
		pushes   []push
	}
	c.mu.Lock()
	var lost []lostJob
	for _, jr := range c.jobs {
		lj := lostJob{id: jr.id, sched: jr.sched}
		for m, rt := range jr.routes {
			if rt.valid && rt.w == w {
				rt.valid = false
				lj.affected = append(lj.affected, m)
			}
		}
		for part, ajw := range jr.active {
			if ajw.w == w {
				continue // its own reduce tasks requeue; nothing to re-route
			}
			lj.pushes = append(lj.pushes, push{ajw, part})
		}
		for _, jw := range jr.jws {
			if jw.w == w {
				lj.jw = jw
				break
			}
		}
		lost = append(lost, lj)
	}
	c.mu.Unlock()
	for _, lj := range lost {
		sort.Ints(lj.affected)
		for _, p := range lj.pushes {
			for _, m := range lj.affected {
				_ = p.jw.w.send(msgSegPush, encodeSegPush(lj.id, p.part, m, -1, nil))
			}
		}
		if lj.jw != nil {
			lj.sched.WorkerLost(lj.jw, lj.affected)
		}
	}
}

// abort tells every worker to fail this job's in-flight reduce sources (the
// scheduler's OnFail): reduce tasks blocked waiting for segment pushes that
// will never come wake up and error out, so a genuine task failure drains
// the job promptly instead of wedging the overlap. Other jobs on the pool
// are untouched.
func (jr *jobRun) abort(err error) {
	msg := binary.AppendUvarint(nil, uint64(jr.id))
	msg = putStr(msg, err.Error())
	for _, jw := range jr.jws {
		_ = jw.w.send(msgAbort, msg) // best-effort; dead workers are already failing
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

// routedSegs snapshots partition r's segments of every completed map with a
// live route, in (map task, publish order) order — the ordering whose
// stable merge reproduces the single-process engine byte for byte.
// Invalidated maps are omitted: their replacement attempt arrives as a
// supersede push. Callers hold c.mu.
func (jr *jobRun) routedSegs(r int) []mapSegs {
	var routed []mapSegs
	for m := 0; m < jr.nMaps; m++ {
		rt, ok := jr.routes[m]
		if !ok || !rt.valid {
			continue
		}
		routed = append(routed, mapSegs{mapIndex: m, attempt: rt.attempt, segs: segsForPartition(rt.waves, r)})
	}
	return routed
}

// matchReattach finds a live worker that can serve a journaled map's sealed
// waves: same registration name as the worker that sealed them, and every
// wave's file ID present in the worker's advertisement for this job with
// the journaled seal-time CRC. Nil when no worker qualifies (the map
// re-executes).
func matchReattach(ws []*remoteWorker, jobID int, jm *journalMap) *remoteWorker {
	if len(jm.waves) == 0 {
		return nil // nothing to fetch; re-running is cheaper than trusting
	}
	for _, w := range ws {
		if w.isDead() || w.name != jm.worker {
			continue
		}
		files := w.sealed[jobID]
		ok := len(files) > 0
		for _, wv := range jm.waves {
			if crc, have := files[wv.FileID]; !have || crc != wv.CRC {
				ok = false
				break
			}
		}
		if ok {
			return w
		}
	}
	return nil
}

// segsForPartition projects one map task's waves onto partition r.
func segsForPartition(waves []shuffle.Wave, r int) []shuffle.Segment {
	var segs []shuffle.Segment
	for _, w := range waves {
		if r >= len(w.Spans) {
			continue // a wave reported with fewer spans than partitions
		}
		if seg, ok := w.SegmentOf(r); ok {
			segs = append(segs, seg)
		}
	}
	return segs
}

// String implements exec.Worker.
func (w *remoteWorker) String() string { return fmt.Sprintf("%s@%s", w.name, w.addr) }

// isDead reports whether the worker has been declared dead.
func (w *remoteWorker) isDead() bool {
	select {
	case <-w.dead:
		return true
	default:
		return false
	}
}

// readLoop routes every reply frame from the worker to its awaiting task
// until the connection ends, at which point the worker is declared dead:
// in-flight and future awaits fail with a WorkerLostError and every
// admitted job re-executes what the worker was serving.
func (w *remoteWorker) readLoop() {
	for {
		typ, payload, err := readMsg(w.br)
		if err != nil {
			// A dead worker (killed mid-task) surfaces here as EOF/reset.
			w.die(fmt.Errorf("connection lost: %w", err))
			return
		}
		w.lastBeat.Store(time.Now().UnixNano())
		switch typ {
		case msgHeartbeat:
			// Liveness only; lastBeat already updated.
		case msgMapDone, msgReduceDone:
			d := &dec{buf: payload}
			job := int(d.uvarint())
			id := int(d.uvarint())
			if d.err != nil {
				w.die(fmt.Errorf("corrupt reply: %w", d.err))
				return
			}
			w.deliver(pendKey{job, typ, id}, asyncReply{payload: payload})
		case msgError:
			job, kind, id, msg, err := decodeTaskError(payload)
			if err != nil {
				w.die(fmt.Errorf("corrupt error frame: %w", err))
				return
			}
			w.deliver(pendKey{job, kind, id}, asyncReply{err: fmt.Errorf("%s: %s", w, msg)})
		default:
			w.die(fmt.Errorf("unexpected frame %q", typ))
			return
		}
	}
}

// die latches the worker's death, wakes every awaiting task, and kicks the
// coordinator's re-execution path. Idempotent.
func (w *remoteWorker) die(err error) {
	w.pmu.Lock()
	select {
	case <-w.dead:
		w.pmu.Unlock()
		return
	default:
	}
	w.deadErr = err
	close(w.dead)
	w.pmu.Unlock()
	_ = w.conn.Close()
	w.c.workerLost(w)
}

// deliver routes one reply to its awaiting task (stray replies are
// dropped — the await may have failed already via die).
func (w *remoteWorker) deliver(key pendKey, r asyncReply) {
	w.pmu.Lock()
	ch, ok := w.pending[key]
	delete(w.pending, key)
	w.pmu.Unlock()
	if ok {
		ch <- r // buffered: never blocks
	}
}

// expect registers interest in one reply before its request is sent (so a
// fast reply cannot race the registration).
func (w *remoteWorker) expect(key pendKey) chan asyncReply {
	ch := make(chan asyncReply, 1)
	w.pmu.Lock()
	w.pending[key] = ch
	w.pmu.Unlock()
	return ch
}

// send writes one frame, serialized against concurrent task requests,
// pushes and aborts.
func (w *remoteWorker) send(typ byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeMsg(w.conn, typ, payload)
}

// lost wraps err so the scheduler classifies it as a dead worker (requeue)
// rather than a task failure (abort).
func (w *remoteWorker) lost(err error) error {
	return &exec.WorkerLostError{Worker: w.String(), Err: err}
}

// await blocks for the expected reply or the worker's death.
func (w *remoteWorker) await(ch chan asyncReply) ([]byte, error) {
	select {
	case r := <-ch:
		return r.payload, r.err
	case <-w.dead:
		return nil, w.lost(w.deadErr)
	}
}

// call runs one request/reply exchange for the task identified by key.
func (w *remoteWorker) call(typ byte, payload []byte, key pendKey) ([]byte, error) {
	ch := w.expect(key)
	if err := w.send(typ, payload); err != nil {
		w.pmu.Lock()
		delete(w.pending, key)
		w.pmu.Unlock()
		w.die(fmt.Errorf("send failed: %w", err))
		return nil, w.lost(err)
	}
	return w.await(ch)
}

// String implements exec.Worker.
func (jw *jobWorker) String() string { return jw.w.String() }

// RunMap implements exec.Worker: ship the split, collect sealed-run
// metadata, and push the new routes to every in-flight reduce task of this
// job. A completion that lost a speculation race (a valid route from
// another attempt already exists) is discarded; a completion racing the
// worker's own death is returned as worker-lost so the scheduler
// re-executes it somewhere the sealed runs will stay fetchable.
func (jw *jobWorker) RunMap(t exec.MapTask) (exec.MapStats, error) {
	w, jr, c := jw.w, jw.j, jw.w.c
	if w.isDead() {
		// A job admitted after this worker died still lists it (stable pool
		// indexes); fail the dispatch fast so the scheduler routes around it.
		return exec.MapStats{}, w.lost(w.deadErr)
	}
	b := binary.AppendUvarint(nil, uint64(jr.id))
	b = binary.AppendUvarint(b, uint64(t.Index))
	b = binary.AppendUvarint(b, uint64(t.Attempt))
	b = putRecords(b, t.Split)
	payload, err := w.call(msgMapTask, b, pendKey{jr.id, msgMapDone, t.Index})
	if err != nil {
		return exec.MapStats{}, err
	}
	md, err := decodeMapDone(payload, w.addr)
	if err != nil {
		return exec.MapStats{}, fmt.Errorf("%s: %w", w, err)
	}
	if md.job != jr.id || md.index != t.Index || md.attempt != t.Attempt {
		return exec.MapStats{}, fmt.Errorf("%s: map reply for job %d task %d attempt %d, want %d/%d/%d",
			w, md.job, md.index, md.attempt, jr.id, t.Index, t.Attempt)
	}
	c.mu.Lock()
	if w.isDead() {
		// The worker died in the instant after replying: its run-server is
		// gone, so the output is unusable. Requeue rather than route.
		c.mu.Unlock()
		return exec.MapStats{}, w.lost(fmt.Errorf("died before routing map %d", t.Index))
	}
	jw.spilledBytes += md.spilledBytes
	jw.rawSpilledBytes += md.rawSpilledBytes
	jw.noteOpens(md.serverOpens)
	if rt, ok := jr.routes[t.Index]; ok && rt.valid {
		// A concurrent attempt won (speculation, or a requeue racing a
		// still-running clone): keep the winner's route, drop this one.
		c.mu.Unlock()
		return exec.MapStats{ShuffleRecords: md.shuffleRecords, Spills: md.spills}, nil
	}
	jr.routes[t.Index] = &mapRoute{w: w, attempt: t.Attempt, waves: md.waves, valid: true}
	// Route the completed map to every reduce task of this job currently in
	// flight — the streamed 'm' metadata that lets reducers start fetching
	// while later maps are still running. Reduce tasks dispatched after
	// this moment get the map in their 'R' snapshot instead (both under
	// c.mu, so each reduce task sees every map exactly once per attempt).
	type push struct {
		jw   *jobWorker
		part int
	}
	var pushes []push
	for part, ajw := range jr.active {
		pushes = append(pushes, push{ajw, part})
	}
	c.mu.Unlock()
	if jr.journal != nil {
		// Journal the completed attempt (with its wave file IDs and seal-time
		// CRCs — the re-attach identity) before routing it anywhere.
		jr.journal(encodeJournalMapDone(jr.ticket, t.Index, t.Attempt, w.name, md))
	}
	for _, p := range pushes {
		_ = p.jw.w.send(msgSegPush, encodeSegPush(jr.id, p.part, t.Index, t.Attempt, segsForPartition(md.waves, p.part)))
	}
	return exec.MapStats{ShuffleRecords: md.shuffleRecords, Spills: md.spills}, nil
}

// RunReduce implements exec.Worker: ship the partition's routing snapshot
// (later maps arrive as pushes), collect output records.
func (jw *jobWorker) RunReduce(t exec.ReduceTask) (exec.ReduceResult, error) {
	w, jr, c := jw.w, jw.j, jw.w.c
	if w.isDead() {
		return exec.ReduceResult{}, w.lost(w.deadErr)
	}
	c.mu.Lock()
	routed := jr.routedSegs(t.Partition)
	jr.active[t.Partition] = jw
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if jr.active[t.Partition] == jw {
			delete(jr.active, t.Partition)
		}
		c.mu.Unlock()
	}()
	payload, err := w.call(msgReduceTask, encodeReduceTask(jr.id, t.Partition, jr.nMaps, routed),
		pendKey{jr.id, msgReduceDone, t.Partition})
	if err != nil {
		return exec.ReduceResult{}, err
	}
	d := &dec{buf: payload}
	job := int(d.uvarint())
	partition := int(d.uvarint())
	res := exec.ReduceResult{
		Spills:           int(d.uvarint()),
		PeakPartialBytes: int64(d.uvarint()),
		MergePasses:      int(d.uvarint()),
	}
	spilledBytes := int64(d.uvarint())
	rawSpilledBytes := int64(d.uvarint())
	res.FetchBytes = int64(d.uvarint())
	dials := int64(d.uvarint())
	opens := int64(d.uvarint())
	res.Output = d.records()
	if d.err != nil {
		return exec.ReduceResult{}, fmt.Errorf("%s: %w", w, d.err)
	}
	if job != jr.id || partition != t.Partition {
		return exec.ReduceResult{}, fmt.Errorf("%s: reduce reply for job %d partition %d, want %d/%d",
			w, job, partition, jr.id, t.Partition)
	}
	c.mu.Lock()
	jw.spilledBytes += spilledBytes
	jw.rawSpilledBytes += rawSpilledBytes
	if dials > w.fetchDials {
		// The worker reports its pool's lifetime dial count; keep the
		// monotonic maximum for later jobs' baselines.
		w.fetchDials = dials
	}
	if dials > jw.dials {
		jw.dials = dials
	}
	jw.noteOpens(opens)
	c.mu.Unlock()
	if jr.journal != nil {
		// Reduce output is final the moment the reply lands (reduce tasks are
		// never speculated); journal the records so a resumed job splices
		// them in instead of re-running the partition.
		jr.journal(encodeJournalReduceDone(jr.ticket, t.Partition, res))
	}
	return res, nil
}

// noteOpens folds one reply's lifetime server-open count into the worker's
// and the job's monotonic maxima (caller holds c.mu) — the same baseline
// discipline FetchDials uses, surfaced as mr.Result.ServerOpens.
func (jw *jobWorker) noteOpens(opens int64) {
	if opens > jw.w.serverOpens {
		jw.w.serverOpens = opens
	}
	if opens > jw.opens {
		jw.opens = opens
	}
}
