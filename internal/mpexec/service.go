package mpexec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mr"
	"blmr/internal/wal"
)

// Service is the long-running, multi-tenant face of the multi-process
// engine: one Coordinator, one worker pool, and a stream of submitted jobs.
// Admission control is a bounded queue (a full queue rejects instead of
// buffering unboundedly) feeding a dispatcher that keeps at most
// MaxConcurrent jobs running; every admitted job gets the shared cross-job
// SlotPool and a fresh instance of the configured placement policy. Close
// drains: already-admitted jobs run to completion, new submissions are
// refused.
//
// Per-job isolation is inherited from the coordinator's job IDs: each job's
// control frames, worker-side spill directories, reduce sources and abort
// latch are its own, so a failing (or churn-hit) job cannot corrupt a
// neighbor, and every job's barrier output stays byte-identical to the
// single-process engine's.

// Service errors distinguish "try later" from "gone".
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity — backpressure, not failure; the caller may retry.
	ErrQueueFull = errors.New("mpexec: admission queue full")
	// ErrServiceClosed rejects submissions after Close began draining.
	ErrServiceClosed = errors.New("mpexec: service closed")
)

// ServiceConfig shapes the service's admission and sharing behavior. The
// zero value is usable: see the field defaults.
type ServiceConfig struct {
	// MaxQueued bounds the admission queue (default 16).
	MaxQueued int
	// MaxConcurrent bounds simultaneously running jobs (default 2).
	MaxConcurrent int
	// PoolMapSlots caps running map tasks per worker across all jobs. Each
	// job holds one map slot per worker, so the default, MaxConcurrent, is
	// a full share for everyone (and as good as no cap). Reduce tasks are
	// never capped: overlapped ones are mostly parked goroutines, not CPU
	// work.
	PoolMapSlots int
	// Policy names the placement policy every job runs under (see
	// exec.PolicyNames; "" = work-stealing dispatch). Each job gets a
	// fresh instance, so stateful policies (round-robin cursors) don't
	// leak placement across jobs.
	Policy string

	// StateDir, when non-empty, makes the service durable: every state
	// transition — job admitted, map attempt completed, reduce partition
	// completed, job done/aborted — is appended to StateDir/journal.wal
	// before it takes effect downstream. NewService replays the journal
	// first, so a service restarted over the same StateDir re-enters every
	// job that was admitted but unfinished when the previous process died,
	// re-attaching completed maps that survived on returning workers.
	// Empty keeps the service purely in-memory.
	StateDir string
	// Resolver maps a journaled job name back to its user code on resume —
	// the journal records inputs and options but never functions. Required
	// when StateDir's journal holds live jobs; a name it cannot resolve
	// fails NewService. Typically the same registry serve-mode workers use.
	Resolver JobResolver
}

func (c *ServiceConfig) normalize() {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.PoolMapSlots <= 0 {
		c.PoolMapSlots = c.MaxConcurrent
	}
}

// Ticket is one submitted job's handle. The submitter blocks on Wait for
// the result; tickets resolve in completion order, not submission order.
type Ticket struct {
	// ID is the service-assigned submission number (dense, from 0). A
	// durable service doubles it as the journal ticket, so resumed tickets
	// keep their pre-crash IDs.
	ID int

	job   exec.Job
	input []core.Record
	opts  exec.Options

	resume *journalJob // replayed journal state (resume; nil = fresh)

	done chan struct{}
	res  *mr.Result
	err  error
}

// Spec returns the ticket's job, input and options — what a resumed ticket
// will run, for verification harnesses re-deriving a reference result.
func (t *Ticket) Spec() (exec.Job, []core.Record, exec.Options) {
	return t.job, t.input, t.opts
}

// Wait blocks for the job's result.
func (t *Ticket) Wait() (*mr.Result, error) {
	<-t.done
	return t.res, t.err
}

// Service runs a stream of jobs on one coordinator's worker pool.
type Service struct {
	coord *Coordinator
	cfg   ServiceConfig
	pool  *exec.SlotPool

	queue    chan *Ticket
	dispDone chan struct{}
	wg       sync.WaitGroup // running jobs

	mu      sync.Mutex
	closed  bool
	nextID  int
	running int

	// Journal state (StateDir services only; log == nil otherwise). jmu
	// serializes appends from Submit, completion and coordinator task
	// goroutines, and guards the fold compaction reads.
	jmu       sync.Mutex
	log       *wal.Log
	abandoned bool          // crash simulation: suppress all appends
	jstate    *journalState // the fold of every record the file holds
	jfile     int           // records the file holds (appends since the last rewrite)
	resumed   []*Ticket
}

// NewService starts a job service over the coordinator's worker pool.
// workers is the pool size the cross-job slot ledger covers — pass the
// number of workers the coordinator waits for (workers registering later
// are scheduled but not slot-capped). The config's policy name is
// validated here so a bad -policy fails at startup, not per job.
//
// With a StateDir, NewService first replays the journal: every job that
// was admitted but unfinished when the previous process died is re-entered
// (same ticket ID, same coordinator job ID, same input and options) ahead
// of any new submission, and the coordinator's job ID counter is placed
// past the journaled history. Returning workers must already be registered
// on c — re-attach matches their advertisements at job admission — so call
// WaitWorkers before NewService when resuming.
func NewService(c *Coordinator, workers int, cfg ServiceConfig) (*Service, error) {
	cfg.normalize()
	if _, err := exec.ParsePolicy(cfg.Policy); err != nil {
		return nil, err
	}
	s := &Service{
		coord:    c,
		cfg:      cfg,
		pool:     exec.NewSlotPool(workers, cfg.PoolMapSlots),
		dispDone: make(chan struct{}),
	}
	if cfg.StateDir != "" {
		if err := s.openJournal(c, cfg); err != nil {
			return nil, err
		}
	}
	// The queue is sized for the admission bound plus every resumed ticket,
	// which must enqueue (in admission order, ahead of new submissions)
	// without blocking before the dispatcher starts; Submit enforces
	// MaxQueued explicitly.
	s.queue = make(chan *Ticket, cfg.MaxQueued+len(s.resumed))
	for _, t := range s.resumed {
		s.queue <- t
	}
	go s.dispatch()
	return s, nil
}

// openJournal replays StateDir's journal into resumed tickets and leaves
// the log open for appending (torn tail truncated).
func (s *Service) openJournal(c *Coordinator, cfg ServiceConfig) error {
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("mpexec: state dir: %w", err)
	}
	log, recs, err := wal.Open(filepath.Join(cfg.StateDir, "journal.wal"))
	if err != nil {
		return fmt.Errorf("mpexec: open journal: %w", err)
	}
	st, err := foldJournal(recs)
	if err != nil {
		_ = log.Close()
		return err
	}
	// The fold resume reads is the one the live service keeps compacting from.
	s.log, s.jstate, s.jfile = log, st, len(recs)
	for _, jj := range st.jobs() {
		t := &Ticket{ID: int(jj.ticket), input: jj.input, opts: jj.opts, resume: jj, done: make(chan struct{})}
		ok := false
		if cfg.Resolver != nil {
			t.job, ok = cfg.Resolver(jj.name)
		}
		if !ok {
			_ = log.Close()
			return fmt.Errorf("mpexec: resume: cannot resolve journaled job %d (%q) — configure ServiceConfig.Resolver", jj.ticket, jj.name)
		}
		t.job.Name = jj.name
		s.resumed = append(s.resumed, t)
	}
	if len(recs) > 0 {
		s.nextID = int(st.maxTicket) + 1
	}
	c.SetMinJobID(st.maxJobID + 1)
	return nil
}

// Resumed returns the tickets replayed out of the journal at startup, in
// admission order. Callers resume-verifying a restarted service wait on
// these.
func (s *Service) Resumed() []*Ticket {
	return append([]*Ticket(nil), s.resumed...)
}

// Submit admits one job, never blocking: a full queue returns ErrQueueFull
// (backpressure) and a draining service returns ErrServiceClosed. The
// returned ticket resolves when the job completes. A durable service
// journals the admission — spec, input and options — before the ticket
// enters the queue, so a submission this method accepted survives a crash.
func (s *Service) Submit(job exec.Job, input []core.Record, opts exec.Options) (*Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServiceClosed
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		return nil, ErrQueueFull
	}
	t := &Ticket{ID: s.nextID, job: job, input: input, opts: opts, done: make(chan struct{})}
	admit := &journalJob{name: job.Name, opts: opts, input: input}
	if err := s.journal(&journalRecord{kind: jAdmit, ticket: uint64(t.ID), admit: admit}); err != nil {
		return nil, fmt.Errorf("mpexec: journal admit: %w", err)
	}
	// Cannot block: capacity was checked under s.mu and only the dispatcher
	// drains the queue.
	s.queue <- t
	s.nextID++
	return t, nil
}

// Stats reports the queue depth and running job count, for admission
// decisions and tests.
func (s *Service) Stats() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}

// Close drains the service: no new submissions, every already-admitted job
// (queued or running) completes, then Close returns. The coordinator stays
// open — callers own its lifecycle.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.dispDone
	s.wg.Wait()
	s.jmu.Lock()
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	s.jmu.Unlock()
}

// dispatch admits queued jobs up to the concurrency bound, each in its own
// runner goroutine, until the queue closes and drains.
func (s *Service) dispatch() {
	defer close(s.dispDone)
	sem := make(chan struct{}, s.cfg.MaxConcurrent)
	for {
		// Claim the run slot before dequeuing: a ticket leaves the queue
		// only when it can start, so MaxQueued is a strict admission bound
		// (no hidden +1 sitting in the dispatcher's hand).
		sem <- struct{}{}
		t, ok := <-s.queue
		if !ok {
			return
		}
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		s.wg.Add(1)
		go func(t *Ticket) {
			defer func() {
				<-sem
				s.mu.Lock()
				s.running--
				s.mu.Unlock()
				s.wg.Done()
			}()
			s.run(t)
		}(t)
	}
}

// run executes one admitted job under the service's sharing config.
func (s *Service) run(t *Ticket) {
	policy, err := exec.ParsePolicy(s.cfg.Policy) // fresh instance per job
	if err != nil {
		t.err = fmt.Errorf("mpexec: job %d: %w", t.ID, err)
		close(t.done)
		return
	}
	jc := jobConfig{pool: s.pool, policy: policy}
	if s.log != nil {
		jc.ticket = uint64(t.ID)
		jc.journal = s.journalBestEffort
		jc.reattach = t.resume
	}
	t.res, t.err = s.coord.runJob(t.job, t.input, t.opts, jc)
	// Retire the ticket in the journal (and compact when the dead-record
	// overhang warrants it) before the submitter observes completion.
	retire := &journalRecord{kind: jDone, ticket: uint64(t.ID)}
	if t.err != nil {
		retire.kind, retire.msg = jAborted, t.err.Error()
	}
	_ = s.journal(retire)
	close(t.done)
}

// journal frames one record, appends it to the write-ahead log and folds its
// header into the live state; no payload is ever decoded here, and none is
// kept beyond its framed bytes. When the file then holds more than twice the
// records a replay would keep (plus a floor so small journals never churn)
// it is rewritten down to exactly those. No-op for in-memory services and
// after Abandon.
func (s *Service) journal(r *journalRecord) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	// Framed outside the lock: admit and reduce records are O(data).
	head := &journalRecord{kind: r.kind, ticket: r.ticket, id: r.id, raw: encode(r)}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.log == nil || s.abandoned {
		return nil
	}
	if err := s.log.Append(head.raw); err != nil {
		return err
	}
	s.jfile++
	s.jstate.apply(head)
	if s.jfile > 2*s.jstate.liveRecords()+64 {
		image := s.jstate.image()
		if err := s.log.Compact(image); err == nil { // else keep appending to the uncompacted file
			s.jfile = len(image)
		}
	}
	return nil
}

// journalBestEffort is the coordinator's append hook: a journal write
// failure degrades durability (the transition re-runs after a crash) but
// must not fail the task that completed.
func (s *Service) journalBestEffort(r *journalRecord) { _ = s.journal(r) }

// Abandon simulates this service process dying without cleanup, for
// restart tests and benchmarks: journal appends stop (a SIGKILLed process
// writes nothing either), the log file handle closes so a successor can
// reopen it, and the coordinator is abandoned — listener and worker
// connections sever with no teardown handshake. In-flight jobs fail with
// worker-lost errors whose abort records are deliberately suppressed, so
// a successor service replays them as live and resumes them. The Service
// is dead afterwards; do not Close it.
func (s *Service) Abandon() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	s.jmu.Lock()
	s.abandoned = true
	if s.log != nil {
		_ = s.log.Close()
	}
	s.jmu.Unlock()
	if !alreadyClosed {
		close(s.queue)
	}
	s.coord.Abandon()
}
