package mpexec

import (
	"encoding/binary"
	"fmt"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/wal"
)

// Journal record schema. The Service appends one record per durable state
// transition to its write-ahead log (internal/wal frames them; this file
// only defines payloads). Every record leads with a kind byte and the
// service ticket ID, so replay can fold an interleaved multi-job stream
// into per-job state:
//
//	'a' admit:   ticket | name | opts | input records
//	's' start:   ticket | coordinator job ID
//	'm' mapDone: ticket | mapIndex | attempt | workerName | shuffleRecords |
//	             spills | waves (putWaves's layout, proto.go)
//	'r' redDone: ticket | partition | spills | peakPartialBytes |
//	             mergePasses | fetchBytes | output records
//	'd' done:    ticket
//	'x' aborted: ticket | message
//
// opts is putOpts's layout (proto.go): a field count, then every
// execution-affecting field of exec.Options — Mappers (resume must re-split
// the input identically) and the scheduler knobs (Staged, Speculative)
// included — because a resumed job must run under exactly the options it
// was admitted with to reproduce its output byte for byte. The count binds
// a journal to the binary that wrote it: replay fails on an admit record
// whose options carry any other number of fields.
//
// Replay keeps the latest record per key: the highest attempt per map
// index, the last result per partition. 'd'/'x' retire the ticket — only
// tickets admitted but not retired are live and re-entered on resume.
// Records for unknown tickets are skipped, not errors: compaction rewrites
// the journal as live tickets only, so a pre-compaction tail replayed
// against a compacted head may reference retired tickets.

// Journal record kinds.
const (
	jAdmit      = 'a'
	jStart      = 's'
	jMapDone    = 'm'
	jReduceDone = 'r'
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

// journalJob is one admitted job's replayed journal state.
type journalJob struct {
	ticket  uint64
	name    string
	opts    exec.Options
	input   []core.Record
	jobID   int // coordinator job ID from 's'; 0 = never started
	maxAtt  int // highest attempt seen across every 'm', done or superseded
	maps    map[int]*journalMap
	reduces map[int]exec.ReduceResult
}

// reattachState carries a resumed job's replayed journal state into
// runJob: which maps completed before the crash (keyed by map index, with
// the sealed waves to match against returning workers' advertisements),
// which reduce partitions already produced output, and the first attempt
// number that outranks every journaled one.
type reattachState struct {
	// firstAttempt seeds the scheduler's attempt counter past every
	// journaled attempt, so re-executions supersede re-attached routes.
	firstAttempt int

	maps    map[int]*journalMap
	reduces map[int]exec.ReduceResult
}

func encodeJournalAdmit(ticket uint64, name string, opts exec.Options, input []core.Record) []byte {
	b := []byte{jAdmit}
	b = binary.AppendUvarint(b, ticket)
	b = putStr(b, name)
	b = putOpts(b, opts)
	return putRecords(b, input)
}

func encodeJournalStart(ticket uint64, jobID int) []byte {
	b := []byte{jStart}
	b = binary.AppendUvarint(b, ticket)
	return binary.AppendUvarint(b, uint64(jobID))
}

func encodeJournalMapDone(ticket uint64, mapIndex, attempt int, worker string, md mapDone) []byte {
	b := []byte{jMapDone}
	b = binary.AppendUvarint(b, ticket)
	b = binary.AppendUvarint(b, uint64(mapIndex))
	b = binary.AppendUvarint(b, uint64(attempt))
	b = putStr(b, worker)
	b = binary.AppendUvarint(b, uint64(md.shuffleRecords))
	b = binary.AppendUvarint(b, uint64(md.spills))
	return putWaves(b, md.waves)
}

func encodeJournalReduceDone(ticket uint64, partition int, res exec.ReduceResult) []byte {
	b := []byte{jReduceDone}
	b = binary.AppendUvarint(b, ticket)
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(res.Spills))
	b = binary.AppendUvarint(b, uint64(res.PeakPartialBytes))
	b = binary.AppendUvarint(b, uint64(res.MergePasses))
	b = binary.AppendUvarint(b, uint64(res.FetchBytes))
	return putRecords(b, res.Output)
}

func encodeJournalDone(ticket uint64) []byte {
	b := []byte{jDone}
	return binary.AppendUvarint(b, ticket)
}

func encodeJournalAborted(ticket uint64, msg string) []byte {
	b := []byte{jAborted}
	b = binary.AppendUvarint(b, ticket)
	return putStr(b, msg)
}

// journalKey peeks a record's kind and ticket (every kind leads with both).
func journalKey(rec []byte) (kind byte, ticket uint64, err error) {
	if len(rec) == 0 {
		return 0, 0, fmt.Errorf("mpexec: empty journal record")
	}
	d := &dec{buf: rec, off: 1}
	ticket = d.uvarint()
	return rec[0], ticket, d.err
}

// replayJournal folds a journal's records into per-ticket job state.
// Returned jobs are the live (admitted, never retired) tickets in admission
// order; maxTicket and maxJobID cover every record seen, retired included,
// so the resuming service can place its counters past the whole history.
func replayJournal(records [][]byte) (live []*journalJob, maxTicket uint64, maxJobID int, err error) {
	jobs := make(map[uint64]*journalJob)
	var order []uint64
	seenAny := false
	for i, rec := range records {
		kind, ticket, err := journalKey(rec)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("mpexec: journal record %d: %w", i, err)
		}
		if !seenAny || ticket > maxTicket {
			maxTicket, seenAny = ticket, true
		}
		d := &dec{buf: rec, off: 1}
		d.uvarint() // ticket, already decoded
		jj := jobs[ticket]
		switch kind {
		case jAdmit:
			jj = &journalJob{
				ticket: ticket, name: d.str(),
				maps:    make(map[int]*journalMap),
				reduces: make(map[int]exec.ReduceResult),
			}
			jj.opts = d.opts()
			jj.input = d.records()
			if d.err != nil {
				return nil, 0, 0, fmt.Errorf("mpexec: journal admit %d: %w", i, d.err)
			}
			jobs[ticket] = jj
			order = append(order, ticket)
		case jStart:
			id := int(d.uvarint())
			if d.err != nil {
				return nil, 0, 0, fmt.Errorf("mpexec: journal start %d: %w", i, d.err)
			}
			if id > maxJobID {
				maxJobID = id
			}
			if jj != nil {
				jj.jobID = id
			}
		case jMapDone:
			jm := &journalMap{}
			idx := int(d.uvarint())
			jm.attempt = int(d.uvarint())
			jm.worker = d.str()
			jm.shuffleRecords = int64(d.uvarint())
			jm.spills = int(d.uvarint())
			jm.waves = d.waves("")
			if d.err != nil {
				return nil, 0, 0, fmt.Errorf("mpexec: journal mapdone %d: %w", i, d.err)
			}
			if jj == nil {
				continue // retired ticket's tail after compaction
			}
			if jm.attempt > jj.maxAtt {
				jj.maxAtt = jm.attempt
			}
			if prev, ok := jj.maps[idx]; !ok || jm.attempt >= prev.attempt {
				jj.maps[idx] = jm
			}
		case jReduceDone:
			part := int(d.uvarint())
			res := exec.ReduceResult{
				Spills:           int(d.uvarint()),
				PeakPartialBytes: int64(d.uvarint()),
				MergePasses:      int(d.uvarint()),
				FetchBytes:       int64(d.uvarint()),
			}
			res.Output = d.records()
			if d.err != nil {
				return nil, 0, 0, fmt.Errorf("mpexec: journal reducedone %d: %w", i, d.err)
			}
			if jj != nil {
				jj.reduces[part] = res
			}
		case jDone, jAborted:
			delete(jobs, ticket)
		default:
			return nil, 0, 0, fmt.Errorf("mpexec: journal record %d: unknown kind %q", i, kind)
		}
	}
	for _, t := range order {
		if jj, ok := jobs[t]; ok {
			live = append(live, jj)
		}
	}
	return live, maxTicket, maxJobID, nil
}

// reattach projects a replayed job into the form runJob's config takes.
func (jj *journalJob) reattach() *reattachState {
	if len(jj.maps) == 0 && len(jj.reduces) == 0 {
		return nil
	}
	return &reattachState{firstAttempt: jj.maxAtt + 1, maps: jj.maps, reduces: jj.reduces}
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
	// LiveMapDone counts map completions belonging to live tickets — the
	// work a resume would re-attach rather than re-execute. Polling until
	// this is positive times a coordinator kill so that recovery provably
	// has something to recover.
	LiveMapDone int
}

// ReadJournalStats replays the journal at path read-only (safe against a
// concurrently appending service; a torn tail is ignored) and tallies it.
func ReadJournalStats(path string) (JournalStats, error) {
	recs, err := wal.Replay(path)
	if err != nil {
		return JournalStats{}, err
	}
	var st JournalStats
	st.Records = len(recs)
	live := make(map[uint64]bool)
	maps := make(map[uint64]int)
	for i, rec := range recs {
		kind, ticket, err := journalKey(rec)
		if err != nil {
			return st, fmt.Errorf("mpexec: journal record %d: %w", i, err)
		}
		switch kind {
		case jAdmit:
			st.Admitted++
			live[ticket] = true
		case jStart:
			st.Started++
		case jMapDone:
			st.MapDone++
			maps[ticket]++
		case jReduceDone:
			st.ReduceDone++
		case jDone:
			st.Done++
			delete(live, ticket)
		case jAborted:
			st.Aborted++
			delete(live, ticket)
		}
	}
	st.Live = len(live)
	for t := range live {
		st.LiveMapDone += maps[t]
	}
	return st, nil
}
