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
// connection; all integers unsigned varints, strings length-prefixed):
//
//	frame:       type byte | payloadLen | payload
//	'H' hello:   runServerAddr | workerName           (worker -> coord)
//	'A' reattach: jobCount | { job | fileCount | { fileID | crc } }
//	                                                  (worker -> coord)
//	'h' beat:    (empty)                              (worker -> coord)
//	'J' job:     job | name | opts                    (coord -> worker)
//	'j' jobEnd:  job                                  (coord -> worker)
//	'M' map:     job | index | attempt | recordCount | codec records
//	                                                  (coord -> worker)
//	'm' mapDone: job | index | attempt | shuffleRecords | spills |
//	             spilledBytes | rawSpilledBytes | serverOpens |
//	             waveCount | { fileID | comp | crc | spanCount | { off | n } }
//	'R' reduce:  job | partition | nMaps |
//	             mapCount | { mapIndex | attempt | segCount |
//	                          { addr | fileID | off | n | comp } }
//	'S' segPush: job | partition | mapIndex | attempt+1 | segCount |
//	             { segment }                          (coord -> worker)
//	'r' redDone: job | partition | spills | peakPartialBytes | mergePasses |
//	             spilledBytes | rawSpilledBytes | fetchBytes | fetchDials |
//	             serverOpens | recordCount | codec records
//	'E' error:   job | replyKind byte ('m'|'r') | id | message
//	                                                  (worker -> coord)
//	'F' abort:   job | message                        (coord -> worker)
//	'B' bye:     (empty)                              (coord -> worker)
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
// cross-process mirror of a transport Fail. comp is the
// wave/segment's sealed-run codec (codec.Compression): sealed runs travel
// compressed between workers' run-servers and decompress only at the
// consuming merger.
//
// Failure semantics ride on two additions. 'h' heartbeats flow every
// heartbeatInterval; the coordinator treats a worker silent for missedBeats
// intervals (or a closed control connection — the fast path for a killed
// process) as dead, re-executes the maps whose sealed runs died
// with it, and re-routes reducers. attempt is the job-unique attempt ID
// the scheduler stamped on the dispatch ('M' echoes it back on 'm'), so
// routing pushes from re-executions and speculative clones are ordered: a
// reduce task keeps the highest-attempt route per map and treats a
// replayed push of the attempt it already holds as an idempotent no-op.
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
	"blmr/internal/store"
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

// dec is a cursor over one frame's payload with sticky errors.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("mpexec: corrupt uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if d.off+int(n) > len(d.buf) {
		d.err = fmt.Errorf("mpexec: truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) records() []core.Record {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// A record encodes to >= 2 bytes (two zero-length strings), so any
	// count beyond remaining/2 is corrupt — reject it before allocating,
	// instead of letting a garbage varint panic makeslice.
	if n > uint64(len(d.buf)-d.off)/2 {
		d.err = fmt.Errorf("mpexec: implausible record count %d for %d payload bytes", n, len(d.buf)-d.off)
		return nil
	}
	out := make([]core.Record, 0, n)
	rd := codec.NewStreamReaderBytes(d.buf[d.off:])
	for i := uint64(0); i < n; i++ {
		rec, ok := rd.Next()
		if !ok {
			d.err = fmt.Errorf("mpexec: truncated record stream: %v", rd.Err())
			return nil
		}
		out = append(out, rec)
	}
	d.off = len(d.buf) // records are always the final field
	return out
}

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putRecords(b []byte, recs []core.Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	return codec.AppendRecords(b, recs)
}

// optsFields is how many values putOpts writes after its leading count.
const optsFields = 12

// putOpts appends the one wire form of exec.Options: a field count, then
// every field that affects execution, shared by the 'J' frame and the
// journal's admit record. SpillDir is left out — it names a directory on
// whichever machine reads it, so each side keeps its own — and so is
// Transport, which across processes is always TCP. A field added to
// exec.Options must be added here and in opts; TestOptsRoundTrip fails
// until it is.
func putOpts(b []byte, o exec.Options) []byte {
	vals := [optsFields]uint64{
		uint64(o.Mappers), uint64(o.Reducers), uint64(o.Mode), uint64(o.SpillBytes),
		uint64(o.MergeFanIn), uint64(o.BatchSize), uint64(o.QueueCap), uint64(o.Store),
		uint64(o.Compression), uint64(o.DecodeWorkers), boolBit(o.Staged), boolBit(o.Speculative),
	}
	b = binary.AppendUvarint(b, optsFields)
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// opts decodes what putOpts wrote. Any other field count is a layout this
// binary does not write — a journal or a worker from another build — and is
// rejected rather than read with every later field shifted.
func (d *dec) opts() exec.Options {
	var o exec.Options
	if n := d.uvarint(); d.err == nil && n != optsFields {
		d.err = fmt.Errorf("mpexec: options carry %d fields, this binary writes %d (written by another build?)", n, optsFields)
	}
	o.Mappers = int(d.uvarint())
	o.Reducers = int(d.uvarint())
	o.Mode = exec.Mode(d.uvarint())
	o.SpillBytes = int64(d.uvarint())
	o.MergeFanIn = int(d.uvarint())
	o.BatchSize = int(d.uvarint())
	o.QueueCap = int(d.uvarint())
	o.Store = store.Kind(d.uvarint())
	o.Compression = codec.Compression(d.uvarint())
	o.DecodeWorkers = int(d.uvarint())
	o.Staged = d.uvarint() != 0
	o.Speculative = d.uvarint() != 0
	o.Transport = shuffle.TCP // the only cross-process transport
	return o
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encodeJobStart frames the 'J' that opens job id on a worker: the job's
// registry name plus its options.
func encodeJobStart(id int, name string, o exec.Options) []byte {
	b := binary.AppendUvarint(nil, uint64(id))
	b = putStr(b, name)
	return putOpts(b, o)
}

// decodeJobStart unpacks a 'J' frame into the job id, registry name and
// options; the worker-local spill directory is carried over from base.
func decodeJobStart(payload []byte, base exec.Options) (id int, name string, o exec.Options, err error) {
	d := &dec{buf: payload}
	id = int(d.uvarint())
	name = d.str()
	o = d.opts()
	o.SpillDir = base.SpillDir
	return id, name, o, d.err
}

// putWaves appends sealed-wave metadata — the one layout the 'm' frame and
// the journal's 'm' record share: waveCount | { fileID | comp | crc |
// spanCount | { off | n } }. Where a wave lives (its run-server address) is
// not part of it; the reader supplies that.
func putWaves(b []byte, waves []shuffle.Wave) []byte {
	b = binary.AppendUvarint(b, uint64(len(waves)))
	for _, w := range waves {
		b = binary.AppendUvarint(b, w.FileID)
		b = binary.AppendUvarint(b, uint64(w.Comp))
		b = binary.AppendUvarint(b, uint64(w.CRC))
		b = binary.AppendUvarint(b, uint64(len(w.Spans)))
		for _, sp := range w.Spans {
			b = binary.AppendUvarint(b, uint64(sp.Off))
			b = binary.AppendUvarint(b, uint64(sp.N))
		}
	}
	return b
}

// waves decodes what putWaves wrote, as waves served from addr.
func (d *dec) waves(addr string) []shuffle.Wave {
	var waves []shuffle.Wave
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		w := shuffle.Wave{Addr: addr, FileID: d.uvarint(), Comp: codec.Compression(d.uvarint()), CRC: uint32(d.uvarint())}
		spanN := d.uvarint()
		for j := uint64(0); j < spanN && d.err == nil; j++ {
			w.Spans = append(w.Spans, shuffle.Span{Off: int64(d.uvarint()), N: int64(d.uvarint())})
		}
		waves = append(waves, w)
	}
	return waves
}

// mapDone carries one completed map task's stats alongside its waves.
type mapDone struct {
	job             int
	index           int
	attempt         int
	shuffleRecords  int64
	spills          int
	spilledBytes    int64
	rawSpilledBytes int64
	serverOpens     int64
	waves           []shuffle.Wave
}

func encodeMapDone(job, index, attempt int, shuffleRecords int64, spills int, spilledBytes, rawSpilledBytes, serverOpens int64, waves []shuffle.Wave) []byte {
	b := binary.AppendUvarint(nil, uint64(job))
	b = binary.AppendUvarint(b, uint64(index))
	b = binary.AppendUvarint(b, uint64(attempt))
	b = binary.AppendUvarint(b, uint64(shuffleRecords))
	b = binary.AppendUvarint(b, uint64(spills))
	b = binary.AppendUvarint(b, uint64(spilledBytes))
	b = binary.AppendUvarint(b, uint64(rawSpilledBytes))
	b = binary.AppendUvarint(b, uint64(serverOpens))
	return putWaves(b, waves)
}

func decodeMapDone(payload []byte, addr string) (mapDone, error) {
	d := &dec{buf: payload}
	md := mapDone{
		job:             int(d.uvarint()),
		index:           int(d.uvarint()),
		attempt:         int(d.uvarint()),
		shuffleRecords:  int64(d.uvarint()),
		spills:          int(d.uvarint()),
		spilledBytes:    int64(d.uvarint()),
		rawSpilledBytes: int64(d.uvarint()),
		serverOpens:     int64(d.uvarint()),
	}
	md.waves = d.waves(addr)
	return md, d.err
}

func putSegs(b []byte, segs []shuffle.Segment) []byte {
	b = binary.AppendUvarint(b, uint64(len(segs)))
	for _, s := range segs {
		b = putStr(b, s.Addr)
		b = binary.AppendUvarint(b, s.FileID)
		b = binary.AppendUvarint(b, uint64(s.Off))
		b = binary.AppendUvarint(b, uint64(s.N))
		b = binary.AppendUvarint(b, uint64(s.Comp))
	}
	return b
}

func (d *dec) segs() []shuffle.Segment {
	n := d.uvarint()
	var segs []shuffle.Segment
	for i := uint64(0); i < n && d.err == nil; i++ {
		s := shuffle.Segment{Addr: d.str()}
		s.FileID = d.uvarint()
		s.Off = int64(d.uvarint())
		s.N = int64(d.uvarint())
		s.Comp = codec.Compression(d.uvarint())
		segs = append(segs, s)
	}
	return segs
}

// mapSegs is one completed map task's segments for one partition, tagged
// with the attempt that produced them. attempt == -1 is a route
// invalidation (the owning worker died; replacement segments follow under
// a higher attempt).
type mapSegs struct {
	mapIndex int
	attempt  int
	segs     []shuffle.Segment
}

func encodeReduceTask(job, partition, nMaps int, routed []mapSegs) []byte {
	b := binary.AppendUvarint(nil, uint64(job))
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(nMaps))
	b = binary.AppendUvarint(b, uint64(len(routed)))
	for _, ms := range routed {
		b = binary.AppendUvarint(b, uint64(ms.mapIndex))
		b = binary.AppendUvarint(b, uint64(ms.attempt))
		b = putSegs(b, ms.segs)
	}
	return b
}

func decodeReduceTask(payload []byte) (job, partition, nMaps int, routed []mapSegs, err error) {
	d := &dec{buf: payload}
	job = int(d.uvarint())
	partition = int(d.uvarint())
	nMaps = int(d.uvarint())
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		ms := mapSegs{mapIndex: int(d.uvarint()), attempt: int(d.uvarint())}
		ms.segs = d.segs()
		routed = append(routed, ms)
	}
	return job, partition, nMaps, routed, d.err
}

// encodeSegPush frames one routing push. attempt == -1 encodes an
// invalidation (wire value 0; segs must be nil).
func encodeSegPush(job, partition, mapIndex, attempt int, segs []shuffle.Segment) []byte {
	b := binary.AppendUvarint(nil, uint64(job))
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(mapIndex))
	b = binary.AppendUvarint(b, uint64(attempt+1))
	return putSegs(b, segs)
}

func decodeSegPush(payload []byte) (job, partition, mapIndex, attempt int, segs []shuffle.Segment, err error) {
	d := &dec{buf: payload}
	job = int(d.uvarint())
	partition = int(d.uvarint())
	mapIndex = int(d.uvarint())
	attempt = int(d.uvarint()) - 1
	segs = d.segs()
	return job, partition, mapIndex, attempt, segs, d.err
}

// encodeTaskError frames a worker-side task failure: the job, the reply
// kind the coordinator is awaiting ('m' or 'r'), the task id, and the
// message.
func encodeTaskError(job int, replyKind byte, id int, msg string) []byte {
	b := binary.AppendUvarint(nil, uint64(job))
	b = append(b, replyKind)
	b = binary.AppendUvarint(b, uint64(id))
	return putStr(b, msg)
}

// sealedFile is one surviving sealed run a returning worker advertises:
// its run-server file ID and the CRC-32C of its on-disk bytes.
type sealedFile struct {
	fileID uint64
	crc    uint32
}

// encodeReattach frames the 'A' advertisement: for each open job, the
// sealed files the worker verified on disk at advertise time. A worker with
// nothing to re-attach sends an empty map.
func encodeReattach(sealed map[int][]sealedFile) []byte {
	b := binary.AppendUvarint(nil, uint64(len(sealed)))
	for job, files := range sealed {
		b = binary.AppendUvarint(b, uint64(job))
		b = binary.AppendUvarint(b, uint64(len(files)))
		for _, f := range files {
			b = binary.AppendUvarint(b, f.fileID)
			b = binary.AppendUvarint(b, uint64(f.crc))
		}
	}
	return b
}

// decodeReattach unpacks an 'A' frame into job -> fileID -> crc.
func decodeReattach(payload []byte) (map[int]map[uint64]uint32, error) {
	d := &dec{buf: payload}
	n := d.uvarint()
	out := make(map[int]map[uint64]uint32, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		job := int(d.uvarint())
		fn := d.uvarint()
		files := make(map[uint64]uint32, fn)
		for j := uint64(0); j < fn && d.err == nil; j++ {
			id := d.uvarint()
			files[id] = uint32(d.uvarint())
		}
		out[job] = files
	}
	return out, d.err
}

func decodeTaskError(payload []byte) (job int, replyKind byte, id int, msg string, err error) {
	d := &dec{buf: payload}
	job = int(d.uvarint())
	if d.err == nil && d.off >= len(d.buf) {
		d.err = fmt.Errorf("mpexec: truncated error frame")
	}
	if d.err != nil {
		return 0, 0, 0, "", d.err
	}
	replyKind = d.buf[d.off]
	d.off++
	id = int(d.uvarint())
	msg = d.str()
	return job, replyKind, id, msg, d.err
}
