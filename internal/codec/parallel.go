package codec

// The parallel block-decode pipeline. The serial blockReader CRC-verifies
// and decompresses every block inline in the consuming goroutine — on the
// shuffle fetch path that is the merger's goroutine, so decompression and
// merging serialize. DecodePool splits block decode into its two halves:
// a reader stage (ParallelReader's goroutine) that frames blocks off the
// section stream and submits them to a bounded worker pool, and the
// consuming goroutine, which receives decoded blocks strictly in stream
// order over a bounded futures channel and parses records out of them
// (the arena-touching half, which must stay single-threaded). CRC checks
// and LZ decompression overlap the merge and each other; record order is
// byte-identical to the serial path because blocks are handed to the
// parser in submission order and parsed serially.
//
// Dictionary-dependent blocks (the BLC3 dict bit) chain on their
// predecessor's decoded payload: such a job waits on the previous job's
// completion before decoding. This cannot deadlock — workers take jobs in
// FIFO submission order and run each to completion, so the earliest
// in-flight job's predecessor has always already been taken (and, by
// induction, completes).
//
// Corruption keeps the serial path's contract: the consumer surfaces
// ErrCorrupt at the offending block, after which the pipeline is drained
// synchronously — when Next reports the failure the reader goroutine has
// already exited and the underlying stream is quiescent, so connection
// recovery can sever or reuse it without racing the pipeline.

import (
	"fmt"
	"sync"

	"blmr/internal/core"
)

// DecodePool is a shared pool of block-decode workers, sized once per
// fetch plane (FetchPool wires one across every pooled connection).
type DecodePool struct {
	jobs    chan *decodeJob
	wg      sync.WaitGroup
	workers int

	mu     sync.RWMutex
	closed bool
}

// NewDecodePool starts workers goroutines decoding submitted blocks.
func NewDecodePool(workers int) *DecodePool {
	if workers < 1 {
		workers = 1
	}
	p := &DecodePool{jobs: make(chan *decodeJob, workers*2), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *DecodePool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}

// submit hands one job to the workers; false once the pool is closed (the
// caller decodes inline). The read lock pins the jobs channel open across
// the send, so a concurrent Close never closes a channel mid-send.
func (p *DecodePool) submit(j *decodeJob) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.jobs <- j
	return true
}

// Close drains queued jobs and stops the workers. In-flight readers fall
// back to inline decode, so sections being consumed still complete.
func (p *DecodePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
}

// decodeJob is one block moving through the pipeline: framed by the
// reader, decoded by a worker (or inline), consumed in order.
type decodeJob struct {
	frame blockFrame
	prev  *decodeJob // set for dict blocks: predecessor's payload is the window
	block []byte     // decoded payload
	err   error
	done  chan struct{}
}

// run decodes the job and signals completion. Dict blocks first wait for
// their predecessor (see the deadlock-freedom argument in the package
// comment).
func (j *decodeJob) run() {
	var hist []byte
	if j.prev != nil {
		<-j.prev.done
		if j.prev.err != nil {
			j.err = fmt.Errorf("%w: block follows a corrupt block", ErrCorrupt)
			close(j.done)
			return
		}
		hist = dictTail(j.prev.block)
	}
	j.block, j.err = decodeBlockPayload(j.block[:0], &j.frame, hist)
	close(j.done)
}

// jobPool recycles decode jobs (their payload and block buffers) across
// blocks and sections.
var jobPool = sync.Pool{New: func() any { return &decodeJob{} }}

// recycleJob returns a job whose buffers are certainly unreferenced: the
// consumer calls it for job i-1 only after observing job i's completion,
// since job i's worker may read i-1's decoded payload as its dictionary.
func recycleJob(j *decodeJob) {
	j.prev = nil
	j.err = nil
	j.done = nil
	jobPool.Put(j)
}

// ParallelReader is a RecordReader decoding one sealed run with a
// DecodePool; it pays off for runs whose blocks may be LZ-compressed.
// Create per section with NewParallelReader; call Stop to abandon a
// partially consumed section (idempotent; implied by a clean end or a
// decode error). Not safe for concurrent use by multiple consumers.
type ParallelReader struct {
	pool    *DecodePool
	parser  blockParser
	futures chan *decodeJob
	stopc   chan struct{}
	cur     *decodeJob
	hdr     [RunHeaderBytes]byte // the reader goroutine's header scratch
	delta   bool                 // written by the reader goroutine before the first send
	readErr error                // written by the reader goroutine before closing futures
	err     error
	started bool
	stopped bool
}

// NewParallelReader starts decoding the sealed run from r (any codec; the
// header self-describes). A non-nil arena backs record strings as in
// SectionDecoder. The reader goroutine owns r until the run ends,
// Stop returns, or Next reports an error — only then may the caller touch
// the underlying stream again.
func NewParallelReader(pool *DecodePool, r ByteScanner, arena *Arena) *ParallelReader {
	pr := &ParallelReader{
		pool: pool,
		// The futures depth bounds read-ahead: at most cap in-flight
		// decoded-or-decoding blocks per section beyond the one consumed.
		futures: make(chan *decodeJob, pool.workers+2),
		stopc:   make(chan struct{}),
	}
	pr.parser.arena = arena
	pr.started = true
	go pr.readLoop(r)
	return pr
}

// readLoop frames blocks off the stream and feeds the pool, in order.
func (pr *ParallelReader) readLoop(r ByteScanner) {
	defer close(pr.futures)
	kind, err := readRunHeader(r, &pr.hdr)
	if err != nil {
		pr.readErr = err
		return
	}
	pr.delta = kind == DeltaBlock
	var prev *decodeJob
	for {
		j := jobPool.Get().(*decodeJob)
		j.done = make(chan struct{})
		ok, err := readBlockFrame(r, &j.frame)
		if err != nil || !ok {
			recycleJob(j)
			pr.readErr = err
			return
		}
		if j.frame.dict {
			j.prev = prev
		}
		// Submit before exposing to the consumer, so a received job always
		// completes; a closed pool decodes inline.
		if !pr.pool.submit(j) {
			j.run()
		}
		prev = j
		select {
		case pr.futures <- j:
		case <-pr.stopc:
			return
		}
	}
}

// advance installs the next decoded block into the parser. false at end of
// run or on error (pr.err distinguishes).
func (pr *ParallelReader) advance() bool {
	j, ok := <-pr.futures
	if !ok {
		pr.stopped = true // reader exited on its own
		pr.err = pr.readErr
		return false
	}
	<-j.done
	j.prev = nil // settled: never read after done, don't pin the chain
	if j.err != nil {
		pr.err = j.err
		pr.Stop()
		return false
	}
	// The departing block can only have been a dictionary source for j,
	// which is complete — its buffers are free now, not before.
	if pr.cur != nil {
		recycleJob(pr.cur)
	}
	pr.cur = j
	pr.parser.delta = pr.delta
	pr.parser.setBlock(j.block, false)
	return true
}

// Next implements RecordReader.
func (pr *ParallelReader) Next() (core.Record, bool) {
	if pr.err != nil {
		return core.Record{}, false
	}
	for pr.parser.exhausted() {
		if !pr.advance() {
			return core.Record{}, false
		}
	}
	rec, ok := pr.parser.next()
	if !ok {
		pr.err = pr.parser.err
		pr.Stop()
	}
	return rec, ok
}

// Err implements RecordReader.
func (pr *ParallelReader) Err() error { return pr.err }

// Stop abandons the pipeline: it halts the reader goroutine and waits for
// every in-flight block, so when it returns nothing references the
// underlying stream or the pool. Idempotent.
func (pr *ParallelReader) Stop() {
	if pr.stopped {
		return
	}
	pr.stopped = true
	close(pr.stopc)
	// Draining to the close marks the reader goroutine's exit. Waiting on
	// each job keeps buffer recycling honest (a drained job's successor may
	// still be reading it), so none of these are recycled here.
	for j := range pr.futures {
		<-j.done
	}
}
