package mpexec

import (
	"fmt"
	"maps"
	"slices"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/wal"
)

// Journal record schema. The Service appends one record per durable state
// transition to its write-ahead log (internal/wal frames them; this file
// only defines payloads). Every record leads with a kind byte and the
// service ticket ID, so a fold can sort an interleaved multi-job stream
// into per-job state:
//
//	'i' admit:   ticket | name | opts | inputCount | run
//	's' start:   ticket | coordinator job ID
//	'w' mapDone: ticket | mapIndex | attempt | workerName | shuffleRecords |
//	             spills | waves (wire.waves's layout, proto.go)
//	'o' redDone: ticket | partition | spills | peakPartialBytes |
//	             mergePasses | fetchBytes | outputCount | run
//	'd' done:    ticket
//	'x' aborted: ticket | message
//
// run is wire.records's: the input or output records as one sealed None
// run, the format of the 'M' and 'r' frames, checksummed per block.
//
// journalRecord.layout states these layouts, once each, for encode and
// decode alike (see wire, proto.go). The header — kind, ticket, and the id
// that follows the ticket in 's', 'w' and 'o' — is all a fold reads; the
// rest is the kind's body, which the live append path never decodes and
// resume decodes exactly once per record.
//
// opts is wire.opts's layout (proto.go): a field count, then every
// execution-affecting field of exec.Options — Mappers (resume must re-split
// the input identically) and the scheduler knobs (Staged, Speculative)
// included — because a resumed job must run under exactly the options it
// was admitted with to reproduce its output byte for byte. The count binds
// a journal to the binary that wrote it: replay fails on an admit record
// whose options carry any other number of fields. A record kind binds its
// body's layout the same way: when a body changes, its kind byte does too,
// and a record of the retired kind fails replay as an unknown kind instead
// of being read with its fields shifted. The map record was 'm' while
// waves named their codec; it has been 'w' since. The admit and reduce
// records were 'a' and 'r' while their records were a bare, unchecksummed
// list; they have been 'i' and 'o' since their records became a run.
//
// One fold, journalState, decides which records of a stream are still live,
// for resume, for compaction and for -journal-stat alike: the last 'i' and
// 's' per ticket, the last 'w' per (ticket, map index) and the last 'o' per
// (ticket, partition), in journal order — the order the coordinator
// installed the routes in, so a map whose speculative clone won and then
// died resumes on the original's route, not on the dead clone's higher
// attempt. 'd'/'x' retire the ticket; only tickets admitted and not retired
// are live. Records for unknown tickets are skipped, not errors: compaction
// rewrites the journal as live tickets only, so a pre-compaction tail
// replayed against a compacted head may reference retired tickets.

// Journal record kinds.
const (
	jAdmit      = 'i'
	jStart      = 's'
	jMapDone    = 'w'
	jReduceDone = 'o'
	jDone       = 'd'
	jAborted    = 'x'
)

// journalMap is one journaled completed map attempt.
type journalMap struct {
	attempt        int
	worker         string // registration name of the worker that sealed it
	shuffleRecords int64
	spills         int
	waves          []shuffle.Wave // Addr empty until re-attach patches it
}

// journalJob is one admitted job as the journal holds it: the 'i' record's
// body, and once a replay has assembled it (journalState.jobs) what the
// ticket's other live records add — the state a resumed job re-enters with.
type journalJob struct {
	name  string
	opts  exec.Options
	input []core.Record

	ticket  uint64
	jobID   int                       // coordinator job ID from 's'; 0 = never started
	maps    map[int]*journalMap       // completed maps, to match against returning workers' advertisements
	reduces map[int]exec.ReduceResult // partitions whose output is already final
}

// firstAttempt is the first attempt number that outranks every journaled
// map the job could re-attach: seeding the scheduler's attempt counter with
// it makes every re-execution supersede a re-attached route.
func (jj *journalJob) firstAttempt() int {
	first := 0
	for _, jm := range jj.maps {
		first = max(first, jm.attempt+1)
	}
	return first
}

// journalRecord is one journal record: the header every kind shares, the
// decoded body of its kind, and the framed bytes.
type journalRecord struct {
	kind   byte
	ticket uint64
	id     int // coordinator job ID ('s'), map index ('w'), partition ('o')

	admit   *journalJob        // 'i': name, opts, input
	mapDone *journalMap        // 'w'
	reduce  *exec.ReduceResult // 'o'
	msg     string             // 'x'

	raw []byte // as framed; what compaction rewrites
}

// header is the part of the layout every fold reads, and all
// peekJournalRecord decodes however large the payload.
func (r *journalRecord) header(w *wire) {
	w.byte(&r.kind)
	w.u64(&r.ticket)
	switch r.kind {
	case jStart, jMapDone, jReduceDone:
		num(w, &r.id)
	case jAdmit, jDone, jAborted:
	default:
		if w.err == nil {
			w.err = fmt.Errorf("mpexec: unknown journal record kind %q", r.kind)
		}
	}
}

func (r *journalRecord) layout(w *wire) {
	r.header(w)
	if w.err != nil {
		return
	}
	switch r.kind {
	case jAdmit:
		if w.decoding {
			r.admit = new(journalJob)
		}
		w.str(&r.admit.name)
		w.opts(&r.admit.opts)
		w.records(&r.admit.input, newRecords)
	case jMapDone:
		if w.decoding {
			r.mapDone = new(journalMap)
		}
		num(w, &r.mapDone.attempt)
		w.str(&r.mapDone.worker)
		num(w, &r.mapDone.shuffleRecords)
		num(w, &r.mapDone.spills)
		w.waves(&r.mapDone.waves)
	case jReduceDone:
		if w.decoding {
			r.reduce = new(exec.ReduceResult)
		}
		num(w, &r.reduce.Spills)
		num(w, &r.reduce.PeakPartialBytes)
		num(w, &r.reduce.MergePasses)
		num(w, &r.reduce.FetchBytes)
		w.chunks(&r.reduce.Output)
	case jAborted:
		w.str(&r.msg)
	}
}

func peekJournalRecord(rec []byte) (*journalRecord, error) {
	r := &journalRecord{raw: rec}
	w := wire{buf: rec, decoding: true}
	r.header(&w)
	return r, w.err
}

func decodeJournalRecord(rec []byte) (*journalRecord, error) {
	r := &journalRecord{raw: rec}
	return r, decode(rec, r)
}

// journalTicket is one live ticket's surviving records.
type journalTicket struct {
	admit, start *journalRecord
	maps, reds   map[int]*journalRecord // by map index, by partition
}

// journalState is the fold of a journal's record stream down to what is
// still live (see the schema comment for the rule). Resume reads its jobs,
// compaction its image, -journal-stat its counts.
type journalState struct {
	live map[uint64]*journalTicket

	// maxTicket and maxJobID cover every record applied, retired tickets
	// included, so a resuming service places its counters past the whole
	// history the file still shows.
	maxTicket uint64
	maxJobID  int
}

func newJournalState() *journalState {
	return &journalState{live: make(map[uint64]*journalTicket)}
}

// apply folds one record in. It reads the header only.
func (st *journalState) apply(r *journalRecord) {
	st.maxTicket = max(st.maxTicket, r.ticket)
	t := st.live[r.ticket]
	switch {
	case r.kind == jAdmit:
		st.live[r.ticket] = &journalTicket{admit: r,
			maps: make(map[int]*journalRecord), reds: make(map[int]*journalRecord)}
	case r.kind == jStart:
		st.maxJobID = max(st.maxJobID, r.id)
		if t != nil {
			t.start = r
		}
	case t == nil:
		// A retired ticket's tail after a compaction.
	case r.kind == jMapDone:
		t.maps[r.id] = r
	case r.kind == jReduceDone:
		t.reds[r.id] = r
	default: // jDone, jAborted
		delete(st.live, r.ticket)
	}
}

// liveRecords is how many records the image holds.
func (st *journalState) liveRecords() int {
	n := 0
	for _, t := range st.live {
		n += 1 + len(t.maps) + len(t.reds)
		if t.start != nil {
			n++
		}
	}
	return n
}

// tickets lists the live tickets in ticket order — admission order, since
// the service numbers tickets as it admits them.
func (st *journalState) tickets() []*journalTicket {
	var ts []*journalTicket
	for _, id := range slices.Sorted(maps.Keys(st.live)) {
		ts = append(ts, st.live[id])
	}
	return ts
}

// image is the compacted journal: every live record and nothing else.
// Replaying it yields this state again.
func (st *journalState) image() [][]byte {
	recs := make([][]byte, 0, st.liveRecords())
	for _, t := range st.tickets() {
		recs = append(recs, t.admit.raw)
		if t.start != nil {
			recs = append(recs, t.start.raw)
		}
		for _, m := range slices.Sorted(maps.Keys(t.maps)) {
			recs = append(recs, t.maps[m].raw)
		}
		for _, p := range slices.Sorted(maps.Keys(t.reds)) {
			recs = append(recs, t.reds[p].raw)
		}
	}
	return recs
}

// foldJournal folds a journal's records for resume: every record is
// body-decoded once, and a corrupt one — live or long superseded — fails the
// replay rather than resurrecting a job in an inconsistent state.
func foldJournal(records [][]byte) (*journalState, error) {
	st := newJournalState()
	for i, rec := range records {
		r, err := decodeJournalRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("mpexec: journal record %d: %w", i, err)
		}
		st.apply(r)
	}
	return st, nil
}

// jobs assembles the live tickets of a replayed state, in admission order,
// from the decoded bodies of exactly the records the image holds.
func (st *journalState) jobs() []*journalJob {
	var jobs []*journalJob
	for _, t := range st.tickets() {
		jj := t.admit.admit
		jj.ticket = t.admit.ticket
		jj.maps = make(map[int]*journalMap, len(t.maps))
		jj.reduces = make(map[int]exec.ReduceResult, len(t.reds))
		if t.start != nil {
			jj.jobID = t.start.id
		}
		for m, r := range t.maps {
			jj.maps[m] = r.mapDone
		}
		for p, r := range t.reds {
			jj.reduces[p] = *r.reduce
		}
		jobs = append(jobs, jj)
	}
	return jobs
}

// JournalStats summarises a job journal for operators and CI: per-kind
// record counts plus the live-ticket count a resume would re-enter.
// cmd/blmr -journal-stat prints these so an external harness can poll for
// "at least one map completion journaled" before killing the coordinator.
type JournalStats struct {
	Records    int // framed records replayed (torn tail excluded)
	Admitted   int
	Started    int
	MapDone    int
	ReduceDone int
	Done       int
	Aborted    int
	Live       int // tickets admitted but neither done nor aborted
	// LiveMapDone counts the distinct maps of live tickets with a journaled
	// completion — the work a resume would re-attach rather than
	// re-execute; a re-executed map counts once. Polling until this is
	// positive times a coordinator kill so that recovery provably has
	// something to recover.
	LiveMapDone int
}

// ReadJournalStats replays the journal at path read-only (safe against a
// concurrently appending service; a torn tail is ignored) and tallies it.
func ReadJournalStats(path string) (JournalStats, error) {
	recs, err := wal.Replay(path)
	if err != nil {
		return JournalStats{}, err
	}
	st := JournalStats{Records: len(recs)}
	byKind := map[byte]*int{jAdmit: &st.Admitted, jStart: &st.Started, jMapDone: &st.MapDone,
		jReduceDone: &st.ReduceDone, jDone: &st.Done, jAborted: &st.Aborted}
	fold := newJournalState()
	for i, rec := range recs {
		r, err := peekJournalRecord(rec)
		if err != nil {
			return st, fmt.Errorf("mpexec: journal record %d: %w", i, err)
		}
		*byKind[r.kind]++
		fold.apply(r)
	}
	st.Live = len(fold.live)
	for _, t := range fold.live {
		st.LiveMapDone += len(t.maps)
	}
	return st, nil
}
