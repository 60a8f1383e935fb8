package shuffle

// Segments: the unit of the run-exchange read path. A map task's sealed
// wave is one multi-partition segment file; a Segment addresses one
// partition's byte section of one wave, either on the local filesystem
// (the in-proc transport's barrier waves, intermediate merge runs) or
// behind a run-server (TCP, multi-process workers).
// Every section is read through a LazyRun: local ones open the file,
// remote ones go through a PushSource's FetchPool — one multiplexed
// connection per peer with pipelined prefetch. There is no other way to
// open a remote section.
//
// Fetch recovery: a PushSource fed by a live control plane (NewPushSource,
// the multi-process workers) re-routes. When a section fetch fails — dial
// error, dead server, short section — the run burns the connection, backs
// off, re-resolves the segment's current route from the source's ledger
// (blocking until the control plane has routed a re-executed attempt),
// reopens through the pool and skips the records it already delivered
// (LazyRun.recover, the one re-route routine for merged and streamed
// consumption alike). That leans on deterministic re-execution: a
// re-executed map attempt seals byte-identical runs, so the skipped prefix
// is the same data. The in-process run exchange's sources do not re-route
// and fail fast.

import (
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/retry"
	"blmr/internal/sortx"
)

// Span is one partition's byte section within a sealed wave file.
// N == 0 means the partition was empty in that wave.
type Span struct{ Off, N int64 }

// Wave is one sealed multi-partition segment file: every non-empty
// partition's key-sorted run back to back (Hadoop's io.sort spill layout),
// with per-partition spans kept as metadata instead of an on-disk index.
type Wave struct {
	// Path locates the file for local opens (empty for remote waves).
	Path string
	// FileID identifies the file on Addr's run-server (TCP exchange).
	FileID uint64
	// Addr is the serving run-server ("" = open Path locally).
	Addr string
	// CRC is the CRC-32C of the whole sealed file, computed while sealing.
	// The crash-restart re-attach handshake compares it against a returning
	// worker's on-disk scan to prove a journaled wave survived intact.
	CRC uint32
	// Spans are the per-partition sections.
	Spans []Span
}

// Segment addresses one partition's section of one sealed wave.
type Segment struct {
	Path   string // local file ("" = remote)
	Addr   string // run-server address (remote)
	FileID uint64
	Off, N int64
}

// SegmentOf returns partition r's segment of the wave, ok=false when empty.
func (w Wave) SegmentOf(r int) (Segment, bool) {
	sp := w.Spans[r]
	if sp.N == 0 {
		return Segment{}, false
	}
	return Segment{Path: w.Path, Addr: w.Addr, FileID: w.FileID, Off: sp.Off, N: sp.N}, true
}

// SegmentsOf projects waves onto partition r, the one projection every
// source's offers are made of: r's non-empty section of each wave, in wave
// order. Every wave must carry a span per partition.
func SegmentsOf(waves []Wave, r int) []Segment {
	var segs []Segment
	for _, w := range waves {
		if seg, ok := w.SegmentOf(r); ok {
			segs = append(segs, seg)
		}
	}
	return segs
}

// LazyRun is a Segment that opens on first Next. A fan-in-capped merge over
// lazy runs therefore holds at most fan-in read buffers (and, for remote
// segments, checked-out pool connections) open at once, no matter how many
// runs the partition has.
type LazyRun struct {
	seg   Segment
	fetch *atomic.Int64 // optional wire-byte counter
	pool  *FetchPool    // the fetch plane remote segments open through
	// held, when set, is a streaming source's connection with this run's
	// section request already pipelined on it: the first open adopts it
	// instead of checking one out, and hands it back through drop (not the
	// pool) if the section does not end cleanly.
	held *poolConn
	drop func(*poolConn)
	// route, when set, re-resolves the run's segment after a fetch failure
	// (wait=true blocks until the control plane routes a live attempt),
	// under rpol's backoff.
	route     func(wait bool) (Segment, bool, error)
	rpol      retry.Policy
	src       sortx.Source
	release   func() error // returns the conn to its holder / closes the file
	err       error
	opened    bool
	delivered int64 // records already handed to the merge (skip on re-route)
	// The re-route budget is the run's, not one recover call's: reopens
	// charged since delivery last passed failedAt, the delivered count at
	// the last failure. A section cut short on a live worker re-reads its
	// consumed prefix cleanly and fails again at the same record, so a
	// budget renewed on every call would retry it forever.
	reopens  int
	failedAt int64
}

// NewLazyRun wraps a local segment (a sealed run on this filesystem).
// Remote segments are opened by the PushSource that owns their pool.
func NewLazyRun(seg Segment) *LazyRun { return &LazyRun{seg: seg} }

func (l *LazyRun) open() {
	l.opened = true
	l.err = nil
	if l.seg.Addr == "" {
		r, err := dfs.OpenRunAt(l.seg.Path, l.seg.Off, l.seg.N)
		if err != nil {
			l.err = err
			return
		}
		l.src, l.release = r, r.Close
		return
	}
	pc, held := l.held, l.held != nil
	l.held = nil
	var err error
	if !held {
		if pc, err = l.pool.get(l.seg.Addr); err != nil {
			l.err = err
			return
		}
		// Sections count their sealed size — the bytes that actually cross
		// the wire.
		if l.fetch != nil {
			l.fetch.Add(l.seg.N)
		}
		err = pc.request(l.seg.FileID, l.seg.Off, l.seg.N)
	}
	var pr *pooledRun
	if err == nil {
		pr, err = pc.openSection()
	}
	put := func() error {
		if !held {
			l.pool.put(pc) // closed there if the conn is broken or mid-section
		} else if pr == nil || !pr.done {
			l.drop(pc) // desynced; a cleanly drained conn stays with its source
		}
		return nil
	}
	if err != nil {
		l.err = err
		_ = put()
		return
	}
	l.src, l.release = pr, put
}

// Next implements sortx.Run.
func (l *LazyRun) Next() (core.Record, bool) {
	if l.err != nil {
		return core.Record{}, false
	}
	if !l.opened {
		l.open()
		if l.err != nil && !l.recover() {
			return core.Record{}, false
		}
	}
	for {
		rec, ok := l.src.Next()
		if ok {
			l.delivered++
			return rec, true
		}
		l.err = l.src.Err()
		if l.err == nil {
			return core.Record{}, false // clean end of the run
		}
		if !l.recover() {
			return core.Record{}, false
		}
	}
}

// recover re-routes after a fetch failure: burn the broken resource, back
// off, re-resolve the segment (blocking until a live attempt is routed),
// reopen through the pool and skip the prefix already delivered. Returns
// true with l.src repositioned, or false with l.err set once the run's
// budget of pol.Attempts-1 reopens without progress is spent.
func (l *LazyRun) recover() bool {
	if l.route == nil {
		return false
	}
	pol := l.rpol.Normalize()
	lastErr := l.err
	if l.delivered > l.failedAt {
		l.reopens = 0 // progress since the last failure: a fresh budget
	}
	l.failedAt = l.delivered
	for l.reopens+1 < pol.Attempts {
		l.reopens++
		_ = l.Close()
		time.Sleep(pol.Backoff(l.reopens))
		seg, _, err := l.route(true)
		if err != nil {
			l.err = err // source failed/aborted: surface that, not the fetch error
			return false
		}
		l.seg = seg
		l.open()
		if l.err != nil {
			lastErr = l.err
			continue
		}
		var skipped int64
		reread := true
		for skipped < l.delivered {
			if _, ok := l.src.Next(); !ok {
				lastErr = l.src.Err()
				if lastErr == nil {
					lastErr = fmt.Errorf("shuffle: re-routed section ended %d records short of the consumed prefix (nondeterministic map output?)", l.delivered-skipped)
				}
				reread = false
				break
			}
			skipped++
		}
		if reread {
			l.err = nil
			return true
		}
	}
	l.err = fmt.Errorf("shuffle: fetch re-route gave up after %d attempts: %w", pol.Attempts, lastErr)
	return false
}

// Err implements sortx.Source.
func (l *LazyRun) Err() error { return l.err }

// Close releases the underlying resource — closing the file reader, or
// handing the pooled connection back — if one was ever opened.
func (l *LazyRun) Close() error {
	if l.release == nil {
		return nil
	}
	rel := l.release
	l.src, l.release = nil, nil
	return rel()
}

// PushSource is the one ReduceSource for one partition's sealed runs. Each
// finished map task's segments for the partition are offered to it: by the
// coordinator's pushes on a multi-process worker, and by a closing RunSink
// in the in-process run exchange.
// Runs waits for every map (the shuffle barrier) and returns every segment
// as a lazy run; NextBatch streams each map's segments as soon as that map
// is offered, re-batched to BatchSize records (pipelined consumption at
// map-task granularity — the overlap a cross-process shuffle can actually
// offer). Every segment is remote and fetched through pool; NextBatch keeps
// up to prefetch section requests
// pipelined ahead of consumption on one held connection per peer. Offer,
// Invalidate and Fail are safe to call concurrently with the consuming task.
//
// The ledger keeps one route per map, and the last route installed wins: the
// first offer of a map counts it toward the barrier and releases it to the
// stream, a repeat of the live route's attempt or an older one is a no-op
// (speculative clones make the coordinator's pushes at-least-once), and a
// newer attempt — or any attempt once Invalidate has marked the route dead —
// replaces the map's segments wholesale. With re-routing on, a failed fetch
// re-resolves its segment from the ledger, parking while the route is dead.
type PushSource struct {
	pool     *FetchPool
	prefetch int          // max pipelined section requests (merge fan-in)
	fetch    atomic.Int64 // wire bytes fetched from run-servers
	fail     *failState
	reroute  bool // failed fetches re-resolve their route under rpol
	rpol     retry.Policy

	mu      sync.Mutex
	byMap   [][]Segment
	attempt []int  // routed attempt ID (valid when got[m])
	dead    []bool // routing invalidated, awaiting a superseding attempt
	got     []bool
	offered int
	ch      chan int      // map indexes in first-offer order
	done    chan struct{} // closed once every map has been offered
	routeCh chan struct{} // closed and replaced on every route change

	// streaming state, owned by the consuming task
	seen     int
	queue    []*LazyRun           // offered maps' runs, in consumption order
	inflight int                  // queued runs whose section is already requested
	conns    map[string]*poolConn // conns held for pipelined streaming
	cur      *LazyRun
	spare    []core.Record // the last recycled batch, refilled by NextBatch
}

// NewPushSource builds a source expecting one Offer per map task, with
// re-routing on: a failed section fetch re-resolves its route under a capped
// backoff instead of failing the task. Offered segments are fetched through
// pool, with up to fanIn (the merge fan-in) section requests pipelined ahead
// of streaming consumption.
func NewPushSource(nMaps int, pool *FetchPool, fanIn int) *PushSource {
	return newPushSource(nMaps, pool, fanIn, newFailState(), true)
}

// newPushSource builds a source aborted through fail. The in-process run
// exchange shares its own latch and passes reroute=false: in one process no
// other attempt can ever be routed, so a broken fetch fails at once.
func newPushSource(nMaps int, pool *FetchPool, fanIn int, fail *failState, reroute bool) *PushSource {
	p := &PushSource{
		pool:     pool,
		prefetch: fanIn,
		fail:     fail,
		reroute:  reroute,
		rpol:     retry.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Attempts: 8},
		byMap:    make([][]Segment, nMaps),
		attempt:  make([]int, nMaps),
		dead:     make([]bool, nMaps),
		got:      make([]bool, nMaps),
		ch:       make(chan int, nMaps),
		done:     make(chan struct{}),
		routeCh:  make(chan struct{}),
	}
	if nMaps == 0 {
		close(p.done)
	}
	return p
}

// FetchBytes reports how many bytes this partition fetched from run-servers
// (compressed sections count their on-the-wire size).
func (p *PushSource) FetchBytes() int64 { return p.fetch.Load() }

// Offer records map task m's segments for this partition (empty for a map
// that published nothing here) under the given attempt ID, by the ledger
// rule above.
func (p *PushSource) Offer(m, attempt int, segs []Segment) error {
	p.mu.Lock()
	if m < 0 || m >= len(p.byMap) {
		p.mu.Unlock()
		return fmt.Errorf("shuffle: segment push for map %d of %d", m, len(p.byMap))
	}
	if !p.got[m] {
		p.got[m] = true
		p.attempt[m] = attempt
		p.byMap[m] = segs
		p.offered++
		last := p.offered == len(p.byMap)
		p.mu.Unlock()
		p.ch <- m // buffered to nMaps: never blocks
		if last {
			close(p.done)
		}
		return nil
	}
	if !p.dead[m] && attempt <= p.attempt[m] {
		p.mu.Unlock()
		return nil // duplicate or stale push: idempotent
	}
	p.attempt[m] = attempt
	p.byMap[m] = segs
	p.dead[m] = false
	close(p.routeCh) // wake fetch recovery blocked on this map
	p.routeCh = make(chan struct{})
	p.mu.Unlock()
	return nil
}

// Invalidate marks map m's routing dead (its serving worker was lost):
// fetches of its segments park until a superseding attempt is offered. A map
// never routed is left untouched.
func (p *PushSource) Invalidate(m int) {
	p.mu.Lock()
	if m >= 0 && m < len(p.byMap) && p.got[m] {
		p.dead[m] = true
	}
	p.mu.Unlock()
}

// Fail aborts the source: the consuming task wakes with err.
func (p *PushSource) Fail(err error) { p.fail.fail(err) }

// resolveSeg is the current route of map m's i-th segment, blocking
// (wait=true) while the routing is invalidated.
func (p *PushSource) resolveSeg(m, i int, wait bool) (Segment, bool, error) {
	for {
		p.mu.Lock()
		if m < 0 || m >= len(p.byMap) {
			p.mu.Unlock()
			return Segment{}, false, fmt.Errorf("shuffle: resolve segment of map %d of %d", m, len(p.byMap))
		}
		if p.got[m] && !p.dead[m] {
			segs := p.byMap[m]
			if i >= len(segs) {
				p.mu.Unlock()
				return Segment{}, false, fmt.Errorf("shuffle: re-routed map %d has %d segments, want index %d (nondeterministic map output?)", m, len(segs), i)
			}
			seg := segs[i]
			p.mu.Unlock()
			return seg, true, nil
		}
		ch := p.routeCh
		p.mu.Unlock()
		if !wait {
			return Segment{}, false, nil
		}
		select {
		case <-ch:
		case <-p.fail.done:
			return Segment{}, false, p.fail.failed()
		}
	}
}

// run wraps map m's i-th segment as a lazy run of this source: fetched
// through its pool, counted in FetchBytes, and re-routed through the ledger
// when re-routing is on.
func (p *PushSource) run(seg Segment, m, i int) *LazyRun {
	lr := &LazyRun{seg: seg, fetch: &p.fetch, pool: p.pool, drop: p.dropConn, rpol: p.rpol}
	if p.reroute {
		lr.route = func(wait bool) (Segment, bool, error) { return p.resolveSeg(m, i, wait) }
	}
	return lr
}

// Runs implements ReduceSource: block on the map barrier, then return every
// segment as a lazy run in (map task, publish order) order.
func (p *PushSource) Runs() ([]sortx.Run, error) {
	select {
	case <-p.done:
	case <-p.fail.done:
		return nil, p.fail.failed()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var runs []sortx.Run
	for m, segs := range p.byMap {
		for i, seg := range segs {
			runs = append(runs, p.run(seg, m, i))
		}
	}
	return runs, nil
}

// connFor returns the held streaming connection for addr, checking one out
// on first use.
func (p *PushSource) connFor(addr string) (*poolConn, error) {
	if pc, ok := p.conns[addr]; ok {
		return pc, nil
	}
	pc, err := p.pool.get(addr)
	if err != nil {
		return nil, err
	}
	if p.conns == nil {
		p.conns = make(map[string]*poolConn)
	}
	p.conns[addr] = pc
	return pc, nil
}

// dropConn removes a broken streaming connection: pipelined requests on it
// are forgotten (their runs re-request elsewhere) and the conn is closed via
// the pool.
func (p *PushSource) dropConn(pc *poolConn) {
	for _, lr := range p.queue {
		if lr.held == pc {
			lr.held = nil
			p.inflight--
		}
	}
	if p.conns[pc.addr] == pc { // a replacement conn to the same peer stays held
		delete(p.conns, pc.addr)
	}
	pc.broken = true
	p.pool.put(pc) // broken: closed there
}

// pump pipelines section requests for queued remote runs, bounded by the
// prefetch budget. Requests go out in queue order per peer, matching the
// order the responses will be consumed in. With re-routing on, stale routes
// are refreshed first and unreachable peers are skipped: their runs open —
// and re-route — themselves at the queue head instead.
func (p *PushSource) pump() error {
	for _, lr := range p.queue {
		if p.inflight >= p.prefetch {
			return nil
		}
		if lr.held != nil {
			continue
		}
		if lr.route != nil {
			seg, ok, err := lr.route(false)
			if err != nil {
				return err
			}
			if !ok {
				continue // invalidated, not yet re-routed: wait at the head
			}
			lr.seg = seg
		}
		pc, err := p.connFor(lr.seg.Addr)
		if err == nil {
			if err = pc.request(lr.seg.FileID, lr.seg.Off, lr.seg.N); err != nil {
				p.dropConn(pc)
			}
		}
		if err != nil {
			if lr.route != nil {
				continue // dead peer
			}
			return err
		}
		p.fetch.Add(lr.seg.N)
		lr.held = pc
		p.inflight++
	}
	return nil
}

// NextBatch implements ReduceSource: stream records of offered map tasks,
// into the batch last handed back through Recycle when there is one.
func (p *PushSource) NextBatch() ([]core.Record, bool, error) {
	var batch []core.Record
	for {
		if p.cur != nil {
			if batch == nil {
				batch, p.spare = p.spare, nil
				if batch == nil {
					batch = make([]core.Record, 0, BatchSize)
				}
			}
			for len(batch) < BatchSize {
				rec, ok := p.cur.Next()
				if !ok {
					break
				}
				batch = append(batch, rec)
			}
			if len(batch) == BatchSize {
				return batch, true, nil
			}
			if err := p.cur.Err(); err != nil {
				return nil, false, err // the run already exhausted its re-routes
			}
			cerr := p.cur.Close()
			p.cur = nil
			if cerr != nil {
				return nil, false, cerr
			}
		}
		if err := p.pump(); err != nil {
			return nil, false, err
		}
		if len(p.queue) > 0 {
			p.cur, p.queue = p.queue[0], p.queue[1:]
			if p.cur.held != nil {
				p.inflight-- // adopted on open: no longer a queued prefetch
			}
			continue
		}
		if p.seen == len(p.byMap) {
			return batch, len(batch) > 0, nil
		}
		// About to block for the next offered map: flush what we have so
		// the reducer overlaps with still-running maps.
		if len(batch) > 0 {
			return batch, true, nil
		}
		select {
		case m := <-p.ch:
			p.seen++
			p.mu.Lock()
			for i, seg := range p.byMap[m] {
				p.queue = append(p.queue, p.run(seg, m, i))
			}
			p.mu.Unlock()
		case <-p.fail.done:
			return nil, false, p.fail.failed()
		}
	}
}

// Recycle implements ReduceSource: keep the drained batch for the next
// NextBatch, zeroed across its capacity so it pins none of the strings the
// reducer was handed (those may be kept; only the header array is reused).
func (p *PushSource) Recycle(batch []core.Record) {
	clear(batch[:cap(batch)])
	p.spare = batch[:0]
}

// Close implements ReduceSource: release the current run and hand every
// held streaming connection back to the pool (connections abandoned
// mid-section or with requests still pipelined are closed there instead).
func (p *PushSource) Close() error {
	var err error
	if p.cur != nil {
		err = p.cur.Close()
		p.cur = nil
	}
	for _, pc := range p.conns {
		p.pool.put(pc)
	}
	p.conns = nil
	return err
}

// sealWave encodes one key-sorted run per partition into a single new
// segment file in dir — each partition's section a self-contained run in
// the directory's codec — returning the wave (registered with srv when
// non-nil). enc is the caller's reusable encoder (nil on first use; the
// returned encoder replaces it). Waves with no records produce no file
// (ok=false).
func sealWave(dir *dfs.RunDir, srv *Server, tag string, parts [][]core.Record, enc *codec.RunEncoder) (w Wave, encOut *codec.RunEncoder, ok bool, err error) {
	any := false
	for _, part := range parts {
		if len(part) > 0 {
			any = true
			break
		}
	}
	if !any {
		return Wave{}, enc, false, nil
	}
	if enc == nil {
		enc = codec.NewRunEncoder(nil, dir.Compression())
	}
	wr, err := dir.Create(tag)
	if err != nil {
		return Wave{}, enc, false, err
	}
	w = Wave{Spans: make([]Span, len(parts))}
	// Every file byte flows through the encoder, so a checksumming shim
	// between encoder and writer sees the sealed file exactly as it lands
	// on disk — the CRC the re-attach survival scan will recompute.
	cw := &crcWriter{w: wr}
	var raw int64
	for p, part := range parts {
		if len(part) == 0 {
			continue
		}
		off := wr.Bytes()
		enc.Reset(cw)
		for _, r := range part {
			if err := enc.Append(r); err != nil {
				wr.Abort()
				return Wave{}, enc, false, err
			}
		}
		if err := enc.Flush(); err != nil {
			wr.Abort()
			return Wave{}, enc, false, err
		}
		raw += enc.RawBytes()
		w.Spans[p] = Span{Off: off, N: wr.Bytes() - off}
	}
	if err := wr.Close(); err != nil {
		wr.Abort()
		return Wave{}, enc, false, err
	}
	dir.AddRawBytes(raw)
	w.Path = wr.Path()
	w.CRC = cw.sum
	if srv != nil {
		w.FileID = srv.Register(wr.Path())
		w.Addr = srv.Addr()
		w.Path = "" // reads go through the server, like a remote peer's would
	}
	return w, enc, true, nil
}

// crcWriter tracks the CRC-32C of everything written through it.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)
