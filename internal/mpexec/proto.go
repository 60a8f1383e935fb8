// Package mpexec runs a MapReduce job across worker subprocesses: a
// Coordinator in the driver process dispatches map and reduce tasks over a
// loopback TCP control connection to Serve loops in worker processes, and
// workers exchange intermediate data as sealed spill runs served by each
// worker's run-server (the same shuffle.Server wire format the in-process
// TCP transport uses, fetched through each worker's pooled "BLR2" plane).
// The coordinator runs no user code — it ships input splits out, collects
// sealed-run metadata, routes it to reduce tasks, and concatenates their
// outputs — so the data plane is exactly the exec.RunMapTask /
// exec.RunReduceTask bodies the single-process engine runs, byte-identical
// output included.
//
// The control plane breaks the stage barrier: reduce tasks are dispatched
// at job start alongside the maps (unless exec.Options.Staged), and each
// completed map's 'm' metadata is re-routed as 'S' push frames to every
// running reduce task, so reducers fetch and consume sealed runs while
// later maps are still running — the paper's cross-wave overlap at real
// process granularity. The connection therefore carries concurrent
// in-flight tasks: replies are matched to requests by task identity
// (map index / partition), not by request/response order.
//
// Control wire format (one frame per message, over the worker's dialed
// connection; all integers unsigned varints, strings length-prefixed). This
// comment is the wire reference; below it every frame is a struct whose
// layout method states the same fields once, in the same order, and encode
// and decode both walk that one statement:
//
//	frame:       type byte | payloadLen | payload
//	'H' hello:   runServerAddr | workerName           (worker -> coord)
//	'A' reattach: jobCount | { job | fileCount | { fileID | crc } }
//	                                                  (worker -> coord)
//	'h' beat:    (empty)                              (worker -> coord)
//	'J' job:     job | name | opts                    (coord -> worker)
//	'j' jobEnd:  job                                  (coord -> worker)
//	'M' map:     job | index | attempt | recordCount | run
//	                                                  (coord -> worker)
//	'm' mapDone: job | index | attempt | shuffleRecords | spills |
//	             spilledBytes | rawSpilledBytes | serverOpens |
//	             waveCount | { fileID | crc | spanCount | { off | n } }
//	'R' reduce:  job | partition | nMaps |
//	             mapCount | { mapIndex | attempt | segCount |
//	                          { addr | fileID | off | n } }
//	'S' segPush: job | partition | mapIndex | attempt+1 | segCount |
//	             { segment }                          (coord -> worker)
//	'r' redDone: job | partition | spills | peakPartialBytes | mergePasses |
//	             spilledBytes | rawSpilledBytes | fetchBytes | fetchDials |
//	             serverOpens | recordCount | run
//	'E' error:   job | replyKind byte ('m'|'r') | id | message
//	                                                  (worker -> coord)
//	'F' abort:   job | message                        (coord -> worker)
//	'B' bye:     (empty)                              (coord -> worker)
//
// run, a split's or an output's records, is the rest of the payload: one
// sealed run of codec None (codec.AppendRun), the format every spill run
// and shuffle segment has, with a CRC-32C per block. It must hold exactly
// recordCount records.
//
// The coordinator is multi-tenant: every job-scoped frame leads with the
// coordinator-assigned job ID, so one worker pool carries several admitted
// jobs concurrently with no cross-talk — each job gets its own worker-side
// state (spill directory, reduce sources, buffered pushes, latched abort).
// 'J' opens a job on the worker: it names the user code (resolved from the
// worker's job registry — both sides are launched from the same binary) and
// ships the job's options (opts is putOpts's layout — a field count, then
// the fields — the same bytes the journal's admit record holds), so the
// task bodies agree with the coordinator on mode, partition count, spill
// budget, codec, ... and heterogeneous jobs can share one pool. 'j' closes
// it: the worker drops the job's state and removes its sealed runs once
// in-flight tasks drain. 'R' carries the
// routing snapshot of every map already completed at dispatch; one 'S'
// follows for each map that completes afterwards (empty segment lists
// included — the reduce task counts distinct maps to know when its routing
// table is sealed). 'F' aborts the job's running reduce sources, the
// cross-process mirror of a transport Fail. Sealed runs travel as sealed
// (compressed, under a compressing codec) between workers' run-servers and
// decode only at the consuming merger; no frame names their codec, since
// every run's header does.
//
// Failure semantics ride on two additions. 'h' heartbeats flow every
// heartbeatInterval; the coordinator treats a worker silent for missedBeats
// intervals (or a closed control connection — the fast path for a killed
// process) as dead, re-executes the maps whose sealed runs died
// with it, and re-routes reducers. attempt is the job-unique attempt ID
// the scheduler stamped on the dispatch ('M' echoes it back on 'm'), so
// routing pushes from re-executions and speculative clones are ordered: a
// reduce task keeps the highest-attempt route per map while that route is
// live, and treats a replayed push of the attempt it already holds as an
// idempotent no-op. Once a route is invalidated the next one pushed
// replaces it whatever its attempt — the coordinator pushes a route only
// when it installs it, and the last route installed wins.
// 'S' encodes the attempt as attempt+1; a zero in that position is a route
// invalidation (the map's previous owner died — the push carries no
// segments, and the reducer parks any fetch of that map until a
// replacement route arrives).
//
// Control-plane durability rides on 'A'. A worker follows every 'H' hello —
// first registration and re-registrations alike — with an 'A' re-attach
// frame advertising the sealed run files it still serves, per open job:
// each file's run-server ID plus the CRC-32C of its on-disk bytes,
// recomputed at advertise time. A restarted coordinator matches the
// advertisement against its replayed journal (which recorded each completed
// map's wave file IDs and seal-time CRCs) and re-attaches matching maps
// into the routing table instead of re-executing them. A fresh worker's 'A'
// is simply empty. Each wave's CRC also travels on 'm' so the coordinator
// can journal it.
package mpexec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
)

// Message types.
const (
	msgHello      = 'H'
	msgReattach   = 'A'
	msgHeartbeat  = 'h'
	msgJobStart   = 'J'
	msgJobEnd     = 'j'
	msgMapTask    = 'M'
	msgMapDone    = 'm'
	msgReduceTask = 'R'
	msgReduceDone = 'r'
	msgSegPush    = 'S'
	msgError      = 'E'
	msgAbort      = 'F'
	msgBye        = 'B'
)

// maxFrame guards against garbage length prefixes (1 GiB).
const maxFrame = 1 << 30

// Worker liveness: every worker sends an 'h' frame each heartbeatInterval,
// and the coordinator declares one dead after missedBeats silent intervals.
// One value for the whole pool on both sides of the connection; a variable
// only so the package's tests can shorten it (export_test.go).
var heartbeatInterval = time.Second

const missedBeats = 4

func writeMsg(w io.Writer, typ byte, payload []byte) error {
	hdr := []byte{typ}
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readMsg(br *bufio.Reader) (byte, []byte, error) {
	typ, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("mpexec: bad frame length: %w", err)
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("mpexec: implausible frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("mpexec: truncated frame: %w", err)
	}
	return typ, payload, nil
}

// wire walks one payload field by field. Encoding, each field it is shown is
// appended to buf; decoding, each is filled in from buf at the cursor, with
// a sticky error (later fields are then left as they were). A message's
// layout method shows it its fields in wire order, so a layout is written
// once and its encoder and decoder cannot drift apart.
type wire struct {
	buf      []byte
	off      int // decode cursor
	decoding bool
	err      error
}

// message is a frame payload or a journal record.
type message interface{ layout(w *wire) }

func encode(m message) []byte {
	var w wire
	m.layout(&w)
	return w.buf
}

// decode fills m from payload. Every malformed or truncated input is an
// error, never a panic: these bytes come from TCP peers and from disk.
//
// Decoded records are views into payload, not copies, so payload must never
// be written again while m is live. Every payload decode sees is allocated
// fresh for it and reused by nothing: readMsg makes each frame's, and
// wal.Replay and wal.Open copy each journal record out of the file image.
// That holds for the bytes only: a map task's split decodes its record
// headers into a buffer from core's free list, which the worker recycles
// once the task has run (runMap); the strings stay views of the payload.
func decode(payload []byte, m message) error {
	w := wire{buf: payload, decoding: true}
	m.layout(&w)
	return w.err
}

func (w *wire) u64(p *uint64) {
	if !w.decoding {
		w.buf = binary.AppendUvarint(w.buf, *p)
		return
	}
	if w.err != nil {
		return
	}
	v, n := binary.Uvarint(w.buf[w.off:])
	if n <= 0 {
		w.err = fmt.Errorf("mpexec: corrupt uvarint at offset %d", w.off)
		return
	}
	w.off += n
	*p = v
}

// num is u64 for a field of any integer type.
func num[T ~int | ~int64 | ~uint32 | ~uint8](w *wire, p *T) {
	v := uint64(*p)
	w.u64(&v)
	*p = T(v)
}

func (w *wire) flag(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	w.u64(&v)
	*p = v != 0
}

// byte is one raw byte (a kind tag, not a varint).
func (w *wire) byte(p *byte) {
	if !w.decoding {
		w.buf = append(w.buf, *p)
		return
	}
	if w.err == nil && w.off >= len(w.buf) {
		w.err = fmt.Errorf("mpexec: truncated payload at offset %d", w.off)
	}
	if w.err != nil {
		return
	}
	*p = w.buf[w.off]
	w.off++
}

// length is the prefix of a string or list of have elements, each at least
// elemBytes bytes on the wire. Decoding, a length the remaining payload
// cannot hold is corrupt and is rejected here, before anything is sized or
// sliced by it — compared as uint64, so one of 2^63 or more cannot wrap
// negative first.
func (w *wire) length(have, elemBytes int) int {
	n := uint64(have)
	w.u64(&n)
	if left := len(w.buf) - w.off; w.decoding && w.err == nil && n > uint64(left/elemBytes) {
		w.err = fmt.Errorf("mpexec: implausible length %d at offset %d, %d payload bytes left", n, w.off, left)
	}
	if w.err != nil {
		return 0
	}
	return int(n)
}

func (w *wire) str(p *string) {
	n := w.length(len(*p), 1)
	if !w.decoding {
		w.buf = append(w.buf, *p...)
	} else if w.err == nil {
		*p = string(w.buf[w.off : w.off+n])
		w.off += n
	}
}

// records is a count-prefixed record list, always a payload's final field:
// the count, then the records as one sealed None run (codec.AppendRun), the
// bytes a spill run of them holds, checksummed block by block. A record
// encodes to >= 2 bytes (two zero-length strings). Decoded records are
// views into the payload (codec.DecodeRun), not copies; their headers go
// into take(n), a buffer of capacity n or more. A run that fails a
// checksum, or that holds other than n records, is codec.ErrCorrupt.
func (w *wire) records(p *[]core.Record, take func(n int) []core.Record) {
	n := w.length(len(*p), 2)
	if !w.decoding {
		w.buf = codec.AppendRun(w.buf, *p)
		return
	}
	if w.err != nil {
		return
	}
	out, err := codec.DecodeRun(take(n), w.buf[w.off:])
	if err == nil && len(out) != n {
		err = fmt.Errorf("%w: %d records, count says %d", codec.ErrCorrupt, len(out), n)
	}
	if err != nil {
		w.err = fmt.Errorf("mpexec: record list: %w", err)
		return
	}
	w.off = len(w.buf)
	*p = out
}

// chunks is records for a list held in chunks (a reduce task's output): it
// encodes to the bytes records writes for the same records, straight from
// the chunks, and decodes as one chunk (none for an empty list).
func (w *wire) chunks(p *core.Chunks) {
	if !w.decoding {
		w.length(p.Len(), 2)
		w.buf = codec.AppendRun(w.buf, *p...)
		return
	}
	var recs []core.Record
	w.records(&recs, newRecords)
	if w.err == nil && len(recs) > 0 {
		*p = core.Chunks{recs}
	}
}

// newRecords is records' take for a list that outlives its decode.
func newRecords(n int) []core.Record { return make([]core.Record, 0, n) }

// list is a count-prefixed list whose elements each show their own fields
// (each) and take at least elemBytes bytes. Decoding grows *p one element at
// a time and stops at the first error, so a corrupt count costs no more
// memory than the bytes behind it.
func list[T any](w *wire, p *[]T, elemBytes int, each func(*T)) {
	n := w.length(len(*p), elemBytes)
	for i := 0; i < n && w.err == nil; i++ {
		if w.decoding {
			*p = append(*p, *new(T))
		}
		each(&(*p)[i])
	}
}

// optsFields is how many values opts carries after its leading count.
const optsFields = 9

// opts is the one wire form of exec.Options: a field count, then every
// field that affects execution, shared by the 'J' frame and the journal's
// admit record. SpillDir is left out — it names a directory on whichever
// machine reads it, so each side keeps its own — and so are Transport,
// which across processes is always TCP, and the three fields no engine
// reads (DecodeWorkers, QueueCap, BatchSize). Any other field count is a
// layout this binary does not write — a journal or a worker from another
// build — and is rejected rather than read with every later field shifted.
// A field added to exec.Options must be added here; TestOptsRoundTrip fails
// until it is.
func (w *wire) opts(o *exec.Options) {
	n := uint64(optsFields)
	w.u64(&n)
	if w.err == nil && n != optsFields {
		w.err = fmt.Errorf("mpexec: options carry %d fields, this binary writes %d (written by another build?)", n, optsFields)
	}
	num(w, &o.Mappers)
	num(w, &o.Reducers)
	num(w, &o.Mode)
	num(w, &o.SpillBytes)
	num(w, &o.MergeFanIn)
	num(w, &o.Store)
	num(w, &o.Compression)
	w.flag(&o.Staged)
	w.flag(&o.Speculative)
	if w.decoding {
		o.Transport = shuffle.TCP // the only cross-process transport
	}
}

// waves is sealed-wave metadata — the one layout the 'm' frame and the
// journal's 'w' record share: waveCount | { fileID | crc | spanCount |
// { off | n } }. Where a wave lives (its run-server address) is not part of
// it; the reader supplies that.
func (w *wire) waves(p *[]shuffle.Wave) {
	list(w, p, 3, func(wv *shuffle.Wave) {
		w.u64(&wv.FileID)
		num(w, &wv.CRC)
		list(w, &wv.Spans, 2, func(sp *shuffle.Span) {
			num(w, &sp.Off)
			num(w, &sp.N)
		})
	})
}

func (w *wire) segs(p *[]shuffle.Segment) {
	list(w, p, 4, func(s *shuffle.Segment) {
		w.str(&s.Addr)
		w.u64(&s.FileID)
		num(w, &s.Off)
		num(w, &s.N)
	})
}

// hello is 'H': the address the worker's run-server serves peers on, and the
// name the worker keeps across re-registrations.
type hello struct{ addr, name string }

func (m *hello) layout(w *wire) {
	w.str(&m.addr)
	w.str(&m.name)
}

// reattach is 'A': for each open job, the sealed run files the worker
// verified on disk at advertise time — each one's run-server file ID and the
// CRC-32C of its on-disk bytes. A worker with nothing to re-attach sends an
// empty list.
type reattach struct{ jobs []sealedJob }

type sealedJob struct {
	job   int
	files []sealedFile
}

type sealedFile struct {
	fileID uint64
	crc    uint32
}

func (m *reattach) layout(w *wire) {
	list(w, &m.jobs, 2, func(j *sealedJob) {
		num(w, &j.job)
		list(w, &j.files, 2, func(f *sealedFile) {
			w.u64(&f.fileID)
			num(w, &f.crc)
		})
	})
}

// jobStart is 'J': it opens job id on a worker under the job's registry name
// and options.
type jobStart struct {
	id   int
	name string
	opts exec.Options
}

func (m *jobStart) layout(w *wire) {
	num(w, &m.id)
	w.str(&m.name)
	w.opts(&m.opts)
}

// jobEnd is 'j': it closes job id on a worker.
type jobEnd struct{ id int }

func (m *jobEnd) layout(w *wire) { num(w, &m.id) }

// mapTask is 'M': one map attempt and its split.
type mapTask struct {
	job int
	t   exec.MapTask
}

func (m *mapTask) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.t.Index)
	num(w, &m.t.Attempt)
	w.records(&m.t.Split, core.TakeRecords)
}

// replyHead is what every 'm' and 'r' reply leads with — the job and the
// task id (map index or partition) — and all the coordinator's reader needs
// to route one to its awaiting task.
type replyHead struct{ job, id int }

func (m *replyHead) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.id)
}

// mapDone is 'm': one completed map attempt's stats alongside its waves.
type mapDone struct {
	job             int
	index           int
	attempt         int
	shuffleRecords  int64
	spills          int
	spilledBytes    int64 // running totals of the job's spill directory on this worker
	rawSpilledBytes int64
	serverOpens     int64 // the worker's run-server's lifetime os.Open count
	waves           []shuffle.Wave
}

func (m *mapDone) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.index)
	num(w, &m.attempt)
	num(w, &m.shuffleRecords)
	num(w, &m.spills)
	num(w, &m.spilledBytes)
	num(w, &m.rawSpilledBytes)
	num(w, &m.serverOpens)
	w.waves(&m.waves)
}

// mapSegs is one completed map task's segments for one partition, tagged
// with the attempt that produced them. attempt == -1 is a route
// invalidation (the owning worker died; replacement segments follow under
// another attempt).
type mapSegs struct {
	mapIndex int
	attempt  int
	segs     []shuffle.Segment
}

// reduceTask is 'R': one partition's reduce task with the routing snapshot
// of every map already completed at dispatch.
type reduceTask struct {
	job       int
	partition int
	nMaps     int
	routed    []mapSegs
}

func (m *reduceTask) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.partition)
	num(w, &m.nMaps)
	if w.decoding && w.err == nil && m.nMaps < 0 {
		w.err = fmt.Errorf("mpexec: reduce task for %d maps", m.nMaps) // sizes the reduce source
	}
	list(w, &m.routed, 3, func(ms *mapSegs) {
		num(w, &ms.mapIndex)
		num(w, &ms.attempt)
		w.segs(&ms.segs)
	})
}

// segPush is 'S': one routing push. The attempt travels as attempt+1, so an
// invalidation (-1, no segments) is wire value 0.
type segPush struct {
	job       int
	partition int
	mapSegs
}

func (m *segPush) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.partition)
	num(w, &m.mapIndex)
	shifted := m.attempt + 1
	num(w, &shifted)
	m.attempt = shifted - 1
	w.segs(&m.segs)
}

// reduceDone is 'r': one completed reduce task's result alongside the
// worker's spill and fetch-plane accounting.
type reduceDone struct {
	job             int
	partition       int
	res             exec.ReduceResult
	spilledBytes    int64 // running totals, as in mapDone
	rawSpilledBytes int64
	fetchDials      int64 // the worker's fetch pool's lifetime dial count
	serverOpens     int64
}

func (m *reduceDone) layout(w *wire) {
	num(w, &m.job)
	num(w, &m.partition)
	num(w, &m.res.Spills)
	num(w, &m.res.PeakPartialBytes)
	num(w, &m.res.MergePasses)
	num(w, &m.spilledBytes)
	num(w, &m.rawSpilledBytes)
	num(w, &m.res.FetchBytes)
	num(w, &m.fetchDials)
	num(w, &m.serverOpens)
	w.chunks(&m.res.Output)
}

// taskError is 'E', a worker-side task failure: the job, the reply kind the
// coordinator is awaiting ('m' or 'r'), the task id, and the message.
type taskError struct {
	job       int
	replyKind byte
	id        int
	msg       string
}

func (m *taskError) layout(w *wire) {
	num(w, &m.job)
	w.byte(&m.replyKind)
	num(w, &m.id)
	w.str(&m.msg)
}

// abort is 'F': it fails job's parked reduce sources with msg.
type abort struct {
	job int
	msg string
}

func (m *abort) layout(w *wire) {
	num(w, &m.job)
	w.str(&m.msg)
}
