package mpexec

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blmr/internal/exec"
)

// Worker RPC: the registration handshake, and remoteWorker — one worker's
// control connection, demultiplexed so that several tasks of several jobs
// await their replies on it at once.

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
	// registration and immutable after: per open job, each surviving
	// sealed-run file's ID and on-disk CRC-32C. Empty for fresh workers; a
	// restarted coordinator matches it against its replayed journal.
	sealed []sealedJob
}

// register runs the registration handshake on a freshly accepted
// connection — the 'H' hello, then the 'A' re-attach advertisement every
// hello is followed by (empty for fresh workers), both read before the
// reader goroutine takes the connection over — and adds the worker to the
// pool. The caller closes conn on error.
func (c *Coordinator) register(conn net.Conn) error {
	br := bufio.NewReader(conn)
	typ, payload, err := readMsg(br)
	if err != nil || typ != msgHello {
		return fmt.Errorf("mpexec: bad registration (type %q): %v", typ, err)
	}
	var h hello
	if err := decode(payload, &h); err != nil {
		return fmt.Errorf("mpexec: bad hello: %w", err)
	}
	typ, payload, err = readMsg(br)
	if err != nil || typ != msgReattach {
		return fmt.Errorf("mpexec: bad re-attach advertisement (type %q): %v", typ, err)
	}
	var adv reattach
	if err := decode(payload, &adv); err != nil {
		return fmt.Errorf("mpexec: bad re-attach advertisement: %w", err)
	}
	c.mu.Lock()
	w := &remoteWorker{
		c: c, id: len(c.workers), name: h.name, conn: conn, br: br, addr: h.addr,
		pending: make(map[pendKey]chan asyncReply),
		dead:    make(chan struct{}),
		sealed:  adv.jobs,
	}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	w.lastBeat.Store(time.Now().UnixNano())
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	go w.readLoop()
	return nil
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
			var head replyHead
			if err := decode(payload, &head); err != nil {
				w.die(fmt.Errorf("corrupt reply: %w", err))
				return
			}
			w.deliver(pendKey{head.job, typ, head.id}, asyncReply{payload: payload})
		case msgError:
			var te taskError
			if err := decode(payload, &te); err != nil {
				w.die(fmt.Errorf("corrupt error frame: %w", err))
				return
			}
			w.deliver(pendKey{te.job, te.replyKind, te.id}, asyncReply{err: fmt.Errorf("%s: %s", w, te.msg)})
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
