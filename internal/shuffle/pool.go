package shuffle

// The pooled fetch plane: the only way to open a remote run section.
// FetchPool keeps one multiplexed "BLR2" connection per peer run-server
// (more only under concurrent checkout, e.g. a fan-in-capped merge
// streaming many runs at once), pipelines request-id-framed section
// requests on it, and reuses the connection's read buffer, decoder state
// and string arena across every section it carries — the fetch path
// neither dials nor allocates per section. Dials are retried under
// dialRetry and counted (Result.FetchDials), so churn recovery re-opens
// sections through the same measured path fault-free runs use.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/retry"
)

// FetchPool is a per-peer pool of multiplexed run-server connections,
// shared by every reduce task of one worker process (or of one in-process
// TCP-transport execution). Get/put are internal; sections are fetched
// through a PushSource wired to the pool. Safe for concurrent use; each
// checked-out connection is single-owner.
type FetchPool struct {
	// DecodeWorkers sizes the shared block-decode pool: Block and
	// DeltaBlock sections fetched through this pool (as their run headers
	// say) CRC-verify and decompress their blocks on that many workers
	// while the merger consumes decoded blocks in order
	// (codec.DecodePool). 0 or 1 keeps decode inline on the consuming
	// goroutine, as None sections always are. Set before the first fetch.
	DecodeWorkers int

	mu     sync.Mutex
	idle   map[string][]*poolConn
	closed bool
	dials  atomic.Int64

	decMu sync.Mutex
	dec   *codec.DecodePool
}

// dialRetry is the capped-exponential-backoff policy for run-server dials,
// absorbing transient connect failures; genuinely dead peers still fail
// within the attempt budget and are handled by the callers' re-route
// recovery.
var dialRetry = retry.Policy{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond, Attempts: 3}

// NewFetchPool builds an empty pool.
func NewFetchPool() *FetchPool {
	return &FetchPool{idle: make(map[string][]*poolConn)}
}

// Dials reports how many run-server connections the pool has ever dialed —
// the number a dial-per-section fetch path would inflate with every fetched
// section, and the pooled plane bounds near (peers × concurrent fetches).
func (p *FetchPool) Dials() int64 { return p.dials.Load() }

// Close closes every idle pooled connection and marks the pool closed:
// connections returned later are closed instead of pooled, so the peers'
// run-servers reap their handler goroutines. Checked-out connections are
// owned (and closed) by their fetchers; sections they are still decoding
// fall back to inline decode once the decode pool stops.
func (p *FetchPool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]*poolConn)
	p.closed = true
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			_ = c.conn.Close()
		}
	}
	p.decMu.Lock()
	dec := p.dec
	p.dec = nil
	p.decMu.Unlock()
	if dec != nil {
		dec.Close()
	}
	return nil
}

// decodePool lazily starts the shared block-decode workers; nil when
// parallel decode is off (or the pool is closed, or there is none).
func (p *FetchPool) decodePool() *codec.DecodePool {
	if p == nil || p.DecodeWorkers <= 1 {
		return nil
	}
	p.decMu.Lock()
	defer p.decMu.Unlock()
	if p.dec == nil {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil
		}
		p.dec = codec.NewDecodePool(p.DecodeWorkers)
	}
	return p.dec
}

// get checks out a connection to addr, dialing when none is idle.
func (p *FetchPool) get(addr string) (*poolConn, error) {
	p.mu.Lock()
	if cs := p.idle[addr]; len(cs) > 0 {
		c := cs[len(cs)-1]
		p.idle[addr] = cs[:len(cs)-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	conn, err := dialRetry.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shuffle: dial run-server %s: %w", addr, err)
	}
	p.dials.Add(1)
	c := &poolConn{
		pool: p,
		addr: addr,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 4<<10),
	}
	// The magic travels with the first request's flush.
	_, _ = c.bw.Write(serverMagicMux[:])
	return c, nil
}

// put returns a checked-out connection. A connection with unconsumed
// response bytes (an abandoned section) or a protocol error is out of sync
// and is closed instead.
func (p *FetchPool) put(c *poolConn) {
	// An abandoned section may still have a parallel-decode reader on the
	// connection; quiesce it before the conn is pooled or closed so
	// nothing races the socket.
	if c.par != nil {
		c.par.Stop()
		c.par = nil
	}
	if c.broken || len(c.pending) > 0 {
		_ = c.conn.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.conn.Close()
		return
	}
	p.idle[c.addr] = append(p.idle[c.addr], c)
	p.mu.Unlock()
}

// maxFetchErrorBytes caps the message length accepted in an error response
// (run-servers send a one-line reason).
const maxFetchErrorBytes = 4 << 10

// pendingSec is one request written on a connection whose response has not
// been fully consumed yet.
type pendingSec struct {
	id uint64
	n  int64
}

// poolConn is one multiplexed run-server connection. Single-owner while
// checked out; responses arrive in request order.
type poolConn struct {
	pool    *FetchPool
	addr    string
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reqSeq  uint64
	pending []pendingSec // FIFO of in-flight requests
	scratch []byte
	broken  bool

	// Reused across every section the connection carries.
	dec   codec.SectionDecoder
	arena codec.Arena
	sr    sectionReader
	run   pooledRun
	par   *codec.ParallelReader // active parallel section, if any
}

// sectionReader is a codec.ByteScanner over the next n payload bytes of the
// connection's (already buffered) read side. It reports io.EOF exactly at
// the section boundary; an early EOF from the connection itself (dead
// server) passes through with bytes still remaining, which the pooledRun
// turns into a short-section error.
type sectionReader struct {
	br        *bufio.Reader
	remaining int64
}

func (s *sectionReader) Read(p []byte) (int, error) {
	if s.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.remaining {
		p = p[:s.remaining]
	}
	n, err := s.br.Read(p)
	s.remaining -= int64(n)
	return n, err
}

func (s *sectionReader) ReadByte() (byte, error) {
	if s.remaining <= 0 {
		return 0, io.EOF
	}
	b, err := s.br.ReadByte()
	if err == nil {
		s.remaining--
	}
	return b, err
}

// request writes (buffered) one section request; the response must be
// consumed in order via beginSection.
func (c *poolConn) request(fileID uint64, off, n int64) error {
	c.reqSeq++
	b := binary.AppendUvarint(c.scratch[:0], c.reqSeq)
	b = binary.AppendUvarint(b, fileID)
	b = binary.AppendUvarint(b, uint64(off))
	b = binary.AppendUvarint(b, uint64(n))
	c.scratch = b
	if _, err := c.bw.Write(b); err != nil {
		c.broken = true
		return fmt.Errorf("shuffle: request run section from %s: %w", c.addr, err)
	}
	c.pending = append(c.pending, pendingSec{id: c.reqSeq, n: n})
	return nil
}

// beginSection flushes pending requests and reads the response header of
// the oldest in-flight request, leaving its n payload bytes next on the
// stream. An error response is returned as err with the connection intact;
// a framing violation marks it broken.
func (c *poolConn) beginSection() (n int64, err error) {
	if len(c.pending) == 0 {
		c.broken = true
		return 0, fmt.Errorf("shuffle: no section requested on conn to %s", c.addr)
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return 0, fmt.Errorf("shuffle: flush section requests to %s: %w", c.addr, err)
	}
	want := c.pending[0]
	id, err := binary.ReadUvarint(c.br)
	if err != nil {
		c.broken = true
		return 0, fmt.Errorf("shuffle: fetch run section from %s: %w", c.addr, err)
	}
	if id != want.id {
		c.broken = true
		return 0, fmt.Errorf("shuffle: run-server %s answered request %d, want %d", c.addr, id, want.id)
	}
	status, err := c.br.ReadByte()
	if err != nil {
		c.broken = true
		return 0, fmt.Errorf("shuffle: fetch run section from %s: %w", c.addr, err)
	}
	if status != 0 {
		c.pending = c.pending[:copy(c.pending, c.pending[1:])]
		msg := "unknown fetch error"
		// The length is the peer's word: past the cap the stream cannot be
		// trusted (or resynced), so the conn is burned instead of allocating
		// whatever it claims.
		l, err := binary.ReadUvarint(c.br)
		if err == nil && l <= maxFetchErrorBytes {
			b := make([]byte, l)
			if _, err = io.ReadFull(c.br, b); err == nil {
				msg = string(b)
			}
		}
		if err != nil || l > maxFetchErrorBytes {
			c.broken = true
		}
		return 0, fmt.Errorf("shuffle: fetch run section from %s: %s", c.addr, msg)
	}
	return want.n, nil
}

// sectionDone pops the oldest in-flight request after its payload was
// consumed in full.
func (c *poolConn) sectionDone() {
	c.pending = c.pending[:copy(c.pending, c.pending[1:])]
}

// openSection begins the oldest requested section and returns a streaming
// record reader over it. The returned run is owned by the connection
// (reused per section): exactly one section may be open at a time, and it
// must be drained or the connection abandoned. Decoded record strings are
// cut from the connection's shared arena (see codec.Arena). That is safe
// for both consumers — the merge's grouped reducers fold or clone what they
// retain, and the pipelined stores clone keys at node creation and fold
// values or keep them as live output payload — so a chunk outlives its
// decode window only by what the task genuinely keeps.
func (c *poolConn) openSection() (*pooledRun, error) {
	n, err := c.beginSection()
	if err != nil {
		return nil, err
	}
	c.sr = sectionReader{br: c.br, remaining: n}
	var rr codec.RecordReader
	c.par = nil
	if dp := c.pool.decodePool(); dp != nil && c.mayLZ(n) {
		// Sections whose blocks may be LZ decode on the shared worker pool:
		// block CRC + LZ work overlaps the merge (and other sections), while
		// record parsing — and the arena — stays on this goroutine.
		c.par = codec.NewParallelReader(dp, &c.sr, &c.arena)
		rr = c.par
	}
	if rr == nil {
		rr = c.dec.Reset(&c.sr, &c.arena)
	}
	c.run = pooledRun{
		pc: c,
		n:  n,
		rr: rr,
	}
	return &c.run, nil
}

// mayLZ peeks the run header of the n-byte section next on the stream and
// reports whether its codec may LZ-compress blocks. A None section stays on
// the serial decoder, which reads its stored blocks straight into the
// arena; so does a section too short or malformed to name a codec, for the
// decoder to report.
func (c *poolConn) mayLZ(n int64) bool {
	hdr, _ := c.br.Peek(int(min(n, codec.RunHeaderBytes)))
	kind, ok := codec.HeaderKind(hdr)
	return ok && kind != codec.None
}

// pooledRun streams one fetched section off a pooled connection. It
// implements sortx.Source plus a completion check; it does not own the
// connection — the checkout holder returns it to the pool.
type pooledRun struct {
	pc   *poolConn
	n    int64
	rr   codec.RecordReader
	err  error
	done bool
}

// Next implements sortx.Run.
func (r *pooledRun) Next() (core.Record, bool) {
	if r.err != nil || r.done {
		return core.Record{}, false
	}
	rec, ok := r.rr.Next()
	if !ok {
		// With a parallel decoder, a false Next means its reader goroutine
		// has exited (clean end or drained error) — the section stream is
		// quiescent, so the remaining-bytes check below is race-free.
		r.pc.par = nil
		if err := r.rr.Err(); err != nil {
			r.err = fmt.Errorf("shuffle: fetched run: %w", err)
			r.pc.broken = true
		} else if got := r.n - r.pc.sr.remaining; got < r.n {
			// The decoder saw a clean end short of the section length: the
			// serving side died mid-transfer (or the stream desynced).
			r.err = fmt.Errorf("shuffle: fetched run: %w: short section (%d of %d bytes)",
				codec.ErrCorrupt, got, r.n)
			r.pc.broken = true
		} else {
			r.done = true
			r.pc.sectionDone()
		}
	}
	return rec, ok
}

// Err implements sortx.Source.
func (r *pooledRun) Err() error { return r.err }
