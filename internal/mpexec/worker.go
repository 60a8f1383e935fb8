package mpexec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"blmr/internal/dfs"
	"blmr/internal/exec"
	"blmr/internal/retry"
	"blmr/internal/shuffle"
)

// JobResolver maps a job's registry name (exec.Job.Name, shipped in the 'J'
// frame) to the user code a worker should run for it. Both sides of the
// multi-process mode are launched from the same binary, so the resolver is
// how a multi-tenant worker pool serves heterogeneous jobs: the coordinator
// ships the name and the option subset, the worker supplies the functions.
type JobResolver func(name string) (exec.Job, bool)

// errCoordLost marks task failures caused by losing the control connection
// (coordinator crash or restart) rather than by the task itself. Tasks
// failed with it produce no 'E' frame: the coordinator that dispatched them
// is gone, and its successor will re-dispatch.
var errCoordLost = errors.New("mpexec: coordinator connection lost")

// reconnectPolicy paces re-dials after a dropped control connection. The
// budget is generous (~a minute at the cap) because the common cause is a
// coordinator restart: the worker's sealed runs are exactly what the
// restarted coordinator wants to re-attach, so patience is cheap and
// re-execution is not.
var reconnectPolicy = retry.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Attempts: 36}

// Serve is a worker process's main loop for a single-app pool: every job
// the coordinator opens resolves to the given user code, whatever its name.
// See ServeJobs for the general form.
func Serve(coordAddr string, job exec.Job, opts exec.Options) error {
	return ServeJobs(coordAddr, func(string) (exec.Job, bool) { return job, true }, opts)
}

// ServeJobs is a worker process's main loop: dial the coordinator, start a
// run-server, register, and execute tasks until the coordinator says bye.
// base carries worker-local knobs (spill directory, decode pool size); the
// task-body options that must match the coordinator (mode, partition count,
// spill budget, codec, ...) arrive per job in the 'J' frame, so one pool
// serves concurrent heterogeneous jobs.
//
// Every admitted job gets its own state: a fresh spill directory (sealed
// with the job's codec, removed when the job closes), its own reduce
// sources and buffered pushes, and its own latched abort — concurrent jobs
// on one worker cannot cross-talk. Tasks of all jobs run concurrently: the
// read loop dispatches each map and reduce task to its own goroutine (the
// coordinator bounds concurrency with per-job slot shares and the cross-job
// slot pool) and keeps routing 'S' segment pushes to in-flight reduce
// sources. Section fetches from peer run-servers go through one shared
// FetchPool: one multiplexed connection per peer, reused across sections,
// tasks and jobs.
//
// A dropped control connection does not kill the worker: the run-server,
// spill directories and sealed runs stay alive while the worker re-dials
// under a capped backoff, and each (re-)registration advertises the sealed
// files still verifiably on disk (the 'A' frame) so a restarted coordinator
// can re-attach completed maps instead of re-executing them. Only a 'B'
// bye — or exhausting the reconnect budget — ends the loop.
func ServeJobs(coordAddr string, resolve JobResolver, base exec.Options) error {
	base.Transport = shuffle.TCP // workers always exchange sealed runs
	base.Normalize()
	w := &workerState{resolve: resolve, base: base,
		name: fmt.Sprintf("w-%d", os.Getpid()), jobs: make(map[int]*wjob)}
	defer w.teardown()
	// Transient connect failures (the coordinator's listener racing worker
	// spawn, a briefly saturated backlog) are absorbed by a capped
	// exponential backoff instead of failing the worker outright.
	pol := retry.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Attempts: 8}
	for {
		conn, err := pol.Dial("tcp", coordAddr)
		if err != nil {
			return fmt.Errorf("mpexec: dial coordinator %s: %w", coordAddr, err)
		}
		bye, err := w.serveConn(coordAddr, conn)
		if err != nil || bye {
			return err
		}
		// The connection dropped without a bye — a coordinator crash,
		// restart, or network fault. Keep every job's sealed state and
		// re-dial; a restarted coordinator re-attaches what survived.
		pol = reconnectPolicy
	}
}

// serveConn runs one control-connection session: register (hello plus the
// sealed-run advertisement), serve frames, and on connection loss reset the
// per-connection state while keeping job state alive for re-attach.
// bye=true is a clean coordinator-initiated exit; a non-nil error is fatal
// to the worker (protocol violation or failed bootstrap).
func (w *workerState) serveConn(coordAddr string, conn net.Conn) (bye bool, err error) {
	defer conn.Close()
	if w.srv == nil { // first connection: bootstrap the data plane once
		srv, advertise, err := runServerFor(coordAddr, conn)
		if err != nil {
			return false, err
		}
		w.srv, w.advertise = srv, advertise
		w.pool = shuffle.NewFetchPool()
		w.pool.DecodeWorkers = w.base.DecodeWorkers
	}
	hello := putStr(nil, w.advertise)
	hello = putStr(hello, w.name)
	if err := writeMsg(conn, msgHello, hello); err != nil {
		return false, nil // connection already dead: re-dial
	}
	if err := writeMsg(conn, msgReattach, encodeReattach(w.survivingRuns())); err != nil {
		return false, nil
	}
	epoch := w.install(conn)
	// Heartbeats prove liveness through long silent stretches (a big map
	// split, a reduce parked on routes); the coordinator declares a worker
	// dead after missedBeats silent intervals.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				w.reply(epoch, msgHeartbeat, nil)
			}
		}
	}()
	bye, err = w.loop(bufio.NewReader(conn), epoch)
	close(hbStop)
	hbWG.Wait()
	w.dropConn()
	return bye, err
}

// runServerFor starts the worker's run-server and derives the address peers
// should dial. On a loopback control plane (the local-cluster default) the
// server binds loopback and advertises its literal address. When the
// coordinator is remote, the server binds every interface and advertises
// the host the control connection uses — the one address peers provably
// can route to this machine.
func runServerFor(coordAddr string, conn net.Conn) (*shuffle.Server, string, error) {
	host, _, err := net.SplitHostPort(coordAddr)
	ip := net.ParseIP(host)
	loopback := err == nil && (host == "localhost" || (ip != nil && ip.IsLoopback()))
	if loopback {
		srv, err := shuffle.NewServer()
		if err != nil {
			return nil, "", err
		}
		return srv, srv.Addr(), nil
	}
	srv, err := shuffle.NewServerOn(":0")
	if err != nil {
		return nil, "", err
	}
	localHost, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		_ = srv.Close()
		return nil, "", fmt.Errorf("mpexec: derive advertised host: %w", err)
	}
	_, port, err := net.SplitHostPort(srv.Addr())
	if err != nil {
		_ = srv.Close()
		return nil, "", fmt.Errorf("mpexec: derive run-server port: %w", err)
	}
	return srv, net.JoinHostPort(localHost, port), nil
}

// workerState is one ServeJobs invocation's shared state. The run-server,
// fetch pool and admitted jobs outlive any single control connection; conn
// and epoch are per-connection, and replies stamped with a stale epoch are
// dropped (a task dispatched by a dead coordinator must not leak its reply
// into the successor's session, where task identities restart).
type workerState struct {
	resolve   JobResolver
	base      exec.Options
	name      string
	advertise string
	srv       *shuffle.Server
	pool      *shuffle.FetchPool

	wmu   sync.Mutex // serializes reply writes; guards conn + epoch
	conn  net.Conn
	epoch int

	wg sync.WaitGroup

	mu   sync.Mutex
	jobs map[int]*wjob // job id -> its state (w.mu guards wjob maps too)
}

// wjob is one admitted job's worker-side state.
type wjob struct {
	id   int
	job  exec.Job
	opts exec.Options
	dir  *dfs.RunDir

	reds    map[int]*shuffle.PushSource // partition -> in-flight reduce source
	early   map[int][]mapSegs           // pushes that raced ahead of their 'R'
	aborted error                       // set by 'F' (or a failed open): fail tasks fast
	tasks   sync.WaitGroup              // in-flight tasks of this job
	sealed  []sealedFile                // run files registered with the run-server (+ seal CRCs)
}

// install binds a new control connection and returns its epoch.
func (w *workerState) install(conn net.Conn) int {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.conn = conn
	return w.epoch
}

// dropConn retires the current connection: the epoch advances so straggler
// task replies are dropped, and in-flight reduce sources fail with
// errCoordLost so their tasks unwind (the dispatching coordinator is gone;
// its successor re-dispatches). Job state — spill dirs, sealed runs,
// resolved user code — survives for re-attach.
func (w *workerState) dropConn() {
	w.wmu.Lock()
	w.conn = nil
	w.epoch++
	w.wmu.Unlock()
	w.mu.Lock()
	var srcs []*shuffle.PushSource
	for _, jb := range w.jobs {
		srcs = slices.AppendSeq(srcs, maps.Values(jb.reds))
		jb.reds = make(map[int]*shuffle.PushSource)
		jb.early = make(map[int][]mapSegs)
	}
	w.mu.Unlock()
	for _, s := range srcs {
		s.Fail(errCoordLost)
	}
}

// survivingRuns scans every job's sealed runs on disk, re-checksumming each
// file, and returns the verified survivors — the 'A' advertisement. A file
// that disappeared or no longer matches its seal-time CRC is silently
// omitted (its map will simply re-execute).
func (w *workerState) survivingRuns() map[int][]sealedFile {
	w.mu.Lock()
	type jobFiles struct {
		id    int
		files []sealedFile
	}
	var snap []jobFiles
	for id, jb := range w.jobs {
		snap = append(snap, jobFiles{id: id, files: append([]sealedFile(nil), jb.sealed...)})
	}
	w.mu.Unlock()
	out := make(map[int][]sealedFile)
	for _, jf := range snap {
		for _, f := range jf.files {
			path, ok := w.srv.PathOf(f.fileID)
			if !ok {
				continue
			}
			crc, err := dfs.CRCFile(path)
			if err != nil || crc != f.crc {
				continue
			}
			out[jf.id] = append(out[jf.id], f)
		}
	}
	return out
}

// teardown is the worker's final cleanup, after the serve loop has ended
// for good: fail whatever is still in flight, wait out every task
// goroutine, then release files, directories, server and pool.
func (w *workerState) teardown() {
	w.mu.Lock()
	jobs := make([]*wjob, 0, len(w.jobs))
	for _, jb := range w.jobs {
		jobs = append(jobs, jb)
	}
	w.jobs = make(map[int]*wjob)
	w.mu.Unlock()
	for _, jb := range jobs {
		w.failJob(jb, errCoordLost)
	}
	w.wg.Wait()
	for _, jb := range jobs {
		if w.srv != nil {
			for _, f := range jb.sealed {
				w.srv.Unregister(f.fileID)
			}
		}
		if jb.dir != nil {
			_ = jb.dir.Close()
		}
	}
	if w.pool != nil {
		w.pool.Close()
	}
	if w.srv != nil {
		_ = w.srv.Close()
	}
}

// loop dispatches control frames until the connection ends: bye=true for a
// coordinator-initiated 'B', bye=false with a nil error when the connection
// dropped (the caller re-dials), and a non-nil error on protocol violation.
func (w *workerState) loop(br *bufio.Reader, epoch int) (bye bool, err error) {
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			return false, nil // connection gone: re-dial
		}
		switch typ {
		case msgBye:
			return true, nil
		case msgJobStart:
			w.openJob(payload)
		case msgJobEnd:
			d := &dec{buf: payload}
			w.closeJob(int(d.uvarint()))
		case msgMapTask:
			w.wg.Add(1)
			go w.runMap(epoch, payload)
		case msgReduceTask:
			// Decoded (and its source registered) synchronously, so pushes
			// read off this same loop afterwards always find the source.
			w.startReduce(epoch, payload)
		case msgSegPush:
			w.offer(payload)
		case msgAbort:
			d := &dec{buf: payload}
			id := int(d.uvarint())
			reason := d.str()
			if jb := w.job(id); jb != nil {
				w.failJob(jb, fmt.Errorf("mpexec: job aborted: %s", reason))
			}
		default:
			return false, fmt.Errorf("mpexec: unexpected message %q from coordinator", typ)
		}
	}
}

// reply sends one frame back, serialized across task goroutines. A reply
// stamped with a stale epoch — its task was dispatched over a connection
// that has since died — is dropped: the restarted coordinator reuses task
// identities, and a stray frame could be mistaken for one of its own.
func (w *workerState) reply(epoch int, typ byte, payload []byte) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if epoch != w.epoch || w.conn == nil {
		return
	}
	_ = writeMsg(w.conn, typ, payload)
}

// openJob admits one job: resolve its user code and give it a fresh spill
// directory sealed with the job's codec. A failed open latches the job
// aborted, so its tasks error back instead of wedging. A 'J' for a job this
// worker already holds is a re-open after a coordinator restart: the sealed
// outputs are kept (they are what re-attach recovers) and only the
// per-session control state resets.
func (w *workerState) openJob(payload []byte) {
	id, name, opts, err := decodeJobStart(payload, w.base)
	if err != nil {
		return // corrupt 'J': the job's tasks will error as unknown
	}
	w.mu.Lock()
	if jb := w.jobs[id]; jb != nil {
		srcs := slices.Collect(maps.Values(jb.reds))
		jb.reds = make(map[int]*shuffle.PushSource)
		jb.early = make(map[int][]mapSegs)
		jb.aborted = nil
		jb.opts = opts
		w.mu.Unlock()
		for _, s := range srcs {
			s.Fail(errCoordLost)
		}
		return
	}
	w.mu.Unlock()
	jb := &wjob{id: id, opts: opts,
		reds: make(map[int]*shuffle.PushSource), early: make(map[int][]mapSegs)}
	if job, ok := w.resolve(name); ok {
		jb.job = job
	} else {
		jb.aborted = fmt.Errorf("mpexec: no job %q in this worker's registry", name)
	}
	if jb.aborted == nil {
		dir, err := dfs.NewRunDirComp("", opts.Compression)
		if err != nil {
			jb.aborted = err
		} else {
			jb.dir = dir
		}
	}
	w.mu.Lock()
	w.jobs[id] = jb
	w.mu.Unlock()
}

// closeJob retires one job: no new tasks can claim it, and once in-flight
// tasks drain its sealed runs are removed from disk.
func (w *workerState) closeJob(id int) {
	w.mu.Lock()
	jb := w.jobs[id]
	delete(w.jobs, id)
	w.mu.Unlock()
	if jb == nil {
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.reapJob(jb, fmt.Errorf("mpexec: job %d closed", id))
	}()
}

// reapJob fails a retired job's straggler sources, waits out its tasks,
// drops the job's run files from the run-server (releasing any handles the
// serving cache still holds, so deleting the files below frees the disk
// space too) and removes its spill directory.
func (w *workerState) reapJob(jb *wjob, reason error) {
	w.failJob(jb, reason)
	jb.tasks.Wait()
	w.mu.Lock()
	sealed := jb.sealed
	jb.sealed = nil
	w.mu.Unlock()
	for _, f := range sealed {
		w.srv.Unregister(f.fileID)
	}
	if jb.dir != nil {
		_ = jb.dir.Close()
	}
}

// job looks up one admitted job (nil when unknown or already closed).
func (w *workerState) job(id int) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

// taskJob claims a task slot on one admitted job: the job cannot be reaped
// until the caller's tasks.Done. nil when the job is unknown/closed.
func (w *workerState) taskJob(id int) *wjob {
	w.mu.Lock()
	defer w.mu.Unlock()
	jb := w.jobs[id]
	if jb != nil {
		jb.tasks.Add(1)
	}
	return jb
}

// failJob aborts one job's in-flight reduce sources and fails its future
// reduce tasks fast (map tasks are local work and run to completion
// harmlessly). Other jobs on this worker are untouched.
func (w *workerState) failJob(jb *wjob, err error) {
	w.mu.Lock()
	if jb.aborted == nil {
		jb.aborted = err
	}
	srcs := slices.Collect(maps.Values(jb.reds))
	w.mu.Unlock()
	for _, s := range srcs {
		s.Fail(err)
	}
}

// offer routes one segment push to its job and partition's in-flight
// source, buffering pushes whose 'R' frame is still in flight (a completed
// map may be routed to a partition in the instant between the coordinator
// registering the reduce task and its 'R' frame hitting the wire).
func (w *workerState) offer(payload []byte) {
	jobID, partition, mapIndex, attempt, segs, err := decodeSegPush(payload)
	if err != nil {
		// A corrupt push's job is unknowable; fail every job rather than
		// park a reduce task forever on an Offer that will not come.
		w.mu.Lock()
		jobs := make([]*wjob, 0, len(w.jobs))
		for _, jb := range w.jobs {
			jobs = append(jobs, jb)
		}
		w.mu.Unlock()
		for _, jb := range jobs {
			w.failJob(jb, fmt.Errorf("mpexec: corrupt segment push: %w", err))
		}
		return
	}
	jb := w.job(jobID)
	if jb == nil {
		return // job already closed: the push is moot
	}
	w.mu.Lock()
	src, ok := jb.reds[partition]
	if !ok {
		jb.early[partition] = append(jb.early[partition], mapSegs{mapIndex: mapIndex, attempt: attempt, segs: segs})
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	if err := applyPush(src, mapSegs{mapIndex: mapIndex, attempt: attempt, segs: segs}); err != nil {
		src.Fail(err)
	}
}

// applyPush feeds one routing push into a reduce source: an invalidation
// (attempt -1, the map's owner died) parks fetches of that map until a
// replacement route arrives; anything else offers the attempt's segments
// (the source keeps the highest attempt and ignores stale or duplicate
// routes).
func applyPush(src *shuffle.PushSource, ms mapSegs) error {
	if ms.attempt < 0 {
		src.Invalidate(ms.mapIndex)
		return nil
	}
	return src.Offer(ms.mapIndex, ms.attempt, ms.segs)
}

// runMap executes one shipped map task through the canonical task body. The
// sink tag carries the job and attempt so concurrent jobs — and
// re-executions or clones of a map this worker already ran — cannot collide
// in the job's sealed files.
func (w *workerState) runMap(epoch int, payload []byte) {
	defer w.wg.Done()
	d := &dec{buf: payload}
	jobID := int(d.uvarint())
	index := int(d.uvarint())
	attempt := int(d.uvarint())
	split := d.records()
	if d.err != nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgMapDone, index, d.err.Error()))
		return
	}
	jb := w.taskJob(jobID)
	if jb == nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgMapDone, index, fmt.Sprintf("unknown job %d", jobID)))
		return
	}
	defer jb.tasks.Done()
	w.mu.Lock()
	aborted := jb.aborted
	w.mu.Unlock()
	if aborted != nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgMapDone, index, aborted.Error()))
		return
	}
	before := jb.dir.SpilledBytes()
	beforeRaw := jb.dir.RawSpilledBytes()
	sink := shuffle.NewRunSink(jb.dir, w.srv, fmt.Sprintf("j%d-m%d-a%d", jobID, index, attempt))
	stats, err := exec.RunMapTask(jb.job, jb.opts, exec.MapTask{Index: index, Attempt: attempt, Split: split}, sink)
	if err != nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgMapDone, index, err.Error()))
		return
	}
	w.mu.Lock()
	for _, wave := range sink.Waves() {
		jb.sealed = append(jb.sealed, sealedFile{fileID: wave.FileID, crc: wave.CRC})
	}
	w.mu.Unlock()
	w.reply(epoch, msgMapDone, encodeMapDone(jobID, index, attempt, stats.ShuffleRecords, stats.Spills,
		jb.dir.SpilledBytes()-before, jb.dir.RawSpilledBytes()-beforeRaw, w.srv.Opens(), sink.Waves()))
}

// startReduce decodes one routed reduce task, registers its push source
// (replaying any pushes that arrived early), and runs the canonical task
// body in its own goroutine so the control loop keeps routing pushes.
func (w *workerState) startReduce(epoch int, payload []byte) {
	jobID, partition, nMaps, routed, err := decodeReduceTask(payload)
	if err != nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgReduceDone, partition, err.Error()))
		return
	}
	jb := w.taskJob(jobID)
	if jb == nil {
		w.reply(epoch, msgError, encodeTaskError(jobID, msgReduceDone, partition, fmt.Sprintf("unknown job %d", jobID)))
		return
	}
	src := shuffle.NewPushSource(nMaps, jb.opts.BatchSize, w.pool, jb.opts.MergeFanIn)
	w.mu.Lock()
	aborted := jb.aborted
	buffered := jb.early[partition]
	delete(jb.early, partition)
	jb.reds[partition] = src
	w.mu.Unlock()
	if aborted != nil {
		// The job already failed; don't park a task on pushes that will
		// never come.
		w.unregister(jb, partition, src)
		jb.tasks.Done()
		w.reply(epoch, msgError, encodeTaskError(jobID, msgReduceDone, partition, aborted.Error()))
		return
	}
	for _, ms := range append(routed, buffered...) {
		if err := applyPush(src, ms); err != nil {
			src.Fail(err)
			break
		}
	}
	w.wg.Add(1)
	go w.runReduce(epoch, jb, partition, src)
}

// unregister drops a finished reduce task's source — only if it still owns
// the slot, so a straggler cannot deregister a later task for the same
// partition.
func (w *workerState) unregister(jb *wjob, partition int, src *shuffle.PushSource) {
	w.mu.Lock()
	if jb.reds[partition] == src {
		delete(jb.reds, partition)
	}
	w.mu.Unlock()
}

// runReduce executes one reduce task through the canonical task body,
// fetching segments from the owning workers' run-servers as their routes
// arrive. Callers have already claimed the job's task slot.
func (w *workerState) runReduce(epoch int, jb *wjob, partition int, src *shuffle.PushSource) {
	defer w.wg.Done()
	defer jb.tasks.Done()
	defer w.unregister(jb, partition, src)
	before := jb.dir.SpilledBytes()
	beforeRaw := jb.dir.RawSpilledBytes()
	res, err := exec.RunReduceTask(jb.job, jb.opts, exec.ReduceTask{Partition: partition}, src, jb.dir)
	_ = src.Close()
	if err != nil {
		if !errors.Is(err, errCoordLost) {
			w.reply(epoch, msgError, encodeTaskError(jb.id, msgReduceDone, partition, err.Error()))
		}
		return
	}
	b := binary.AppendUvarint(nil, uint64(jb.id))
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(res.Spills))
	b = binary.AppendUvarint(b, uint64(res.PeakPartialBytes))
	b = binary.AppendUvarint(b, uint64(res.MergePasses))
	b = binary.AppendUvarint(b, uint64(jb.dir.SpilledBytes()-before))
	b = binary.AppendUvarint(b, uint64(jb.dir.RawSpilledBytes()-beforeRaw))
	b = binary.AppendUvarint(b, uint64(res.FetchBytes))
	b = binary.AppendUvarint(b, uint64(w.pool.Dials()))
	b = binary.AppendUvarint(b, uint64(w.srv.Opens()))
	b = putRecords(b, res.Output)
	w.reply(epoch, msgReduceDone, b)
}
