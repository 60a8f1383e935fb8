package mpexec

import (
	"bufio"
	"errors"
	"fmt"
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
// base carries the worker-local knob, the spill directory; the
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
	}
	if err := writeMsg(conn, msgHello, encode(&hello{w.advertise, w.name})); err != nil {
		return false, nil // connection already dead: re-dial
	}
	if err := writeMsg(conn, msgReattach, encode(&reattach{w.survivingRuns()})); err != nil {
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
	for _, jb := range w.allJobs() {
		w.failSources(jb, errCoordLost)
	}
}

// survivingRuns scans every job's sealed runs on disk, re-checksumming each
// file, and returns the verified survivors — the 'A' advertisement. A file
// that disappeared or no longer matches its seal-time CRC is silently
// omitted (its map will simply re-execute).
func (w *workerState) survivingRuns() []sealedJob {
	var out []sealedJob
	for _, jb := range w.allJobs() {
		w.mu.Lock()
		sealed := slices.Clone(jb.sealed)
		w.mu.Unlock()
		alive := sealedJob{job: jb.id}
		for _, f := range sealed {
			if path, ok := w.srv.PathOf(f.fileID); ok {
				if crc, err := dfs.CRCFile(path); err == nil && crc == f.crc {
					alive.files = append(alive.files, f)
				}
			}
		}
		if len(alive.files) > 0 {
			out = append(out, alive)
		}
	}
	return out
}

// teardown is the worker's final cleanup, after the serve loop has ended
// for good: close every job still open, wait out every task and reaper
// goroutine, then release server and pool.
func (w *workerState) teardown() {
	for _, jb := range w.allJobs() {
		w.closeJob(jb.id)
	}
	w.wg.Wait()
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
			var end jobEnd
			if err := decode(payload, &end); err != nil {
				return false, fmt.Errorf("mpexec: corrupt %q frame from coordinator: %w", typ, err)
			}
			w.closeJob(end.id)
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
			// A truncated abort must not be dropped: the reducers it was
			// meant to wake would stay parked.
			var ab abort
			if err := decode(payload, &ab); err != nil {
				return false, fmt.Errorf("mpexec: corrupt %q frame from coordinator: %w", typ, err)
			}
			if jb := w.job(ab.job); jb != nil {
				w.failJob(jb, fmt.Errorf("mpexec: job aborted: %s", ab.msg))
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

// replyError reports one task's failure: kind is the reply the coordinator
// is awaiting for it ('m' or 'r'), id its map index or partition.
func (w *workerState) replyError(epoch, job int, kind byte, id int, err error) {
	w.reply(epoch, msgError, encode(&taskError{job, kind, id, err.Error()}))
}
