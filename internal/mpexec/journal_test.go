package mpexec

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/wal"
)

// The function-shaped view of the codecs that TestOptsRoundTrip and
// TestOptsRejectOtherLayouts (proto_test.go) were written against, and which
// the hand-built records of the tests below use too.

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putRecords(b []byte, recs []core.Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(recs)))
	return codec.AppendRun(b, recs)
}

func encodeJobStart(id int, name string, o exec.Options) []byte {
	return encode(&jobStart{id, name, o})
}

// decodeJobStart is what workerState.openJob does with a 'J' payload: the
// worker-local spill directory is carried over from base.
func decodeJobStart(payload []byte, base exec.Options) (id int, name string, o exec.Options, err error) {
	var js jobStart
	err = decode(payload, &js)
	js.opts.SpillDir = base.SpillDir
	return js.id, js.name, js.opts, err
}

func encodeJournalAdmit(ticket uint64, name string, opts exec.Options, input []core.Record) []byte {
	return encode(&journalRecord{kind: jAdmit, ticket: ticket, admit: &journalJob{name: name, opts: opts, input: input}})
}

// replayJournal is resume as NewService runs it: fold the records, bodies
// decoded, and return what a restarted service would re-enter.
func replayJournal(records [][]byte) (live []*journalJob, maxTicket uint64, maxJobID int, err error) {
	st, err := foldJournal(records)
	if err != nil {
		return nil, 0, 0, err
	}
	return st.jobs(), st.maxTicket, st.maxJobID, nil
}

// mapRec and redRec build the two keyed journal records of the fold tests.
func mapRec(ticket uint64, m, attempt int, worker string) []byte {
	return encode(&journalRecord{kind: jMapDone, ticket: ticket, id: m, mapDone: &journalMap{attempt: attempt, worker: worker,
		shuffleRecords: int64(10 * attempt), waves: []shuffle.Wave{{FileID: uint64(100*m + attempt), CRC: uint32(attempt)}}}})
}

func redRec(ticket uint64, part, n int) []byte {
	return encode(&journalRecord{kind: jReduceDone, ticket: ticket, id: part,
		reduce: &exec.ReduceResult{Spills: n, Output: core.Chunks{{{Key: "k", Value: strconv.Itoa(n)}}}}})
}

func admitRec(ticket uint64) []byte {
	return encodeJournalAdmit(ticket, "wordcount", exec.Options{Mappers: 4, Reducers: 2}, []core.Record{{Key: "in", Value: strconv.FormatUint(ticket, 10)}})
}

// foldLive folds records the way the live append path does — headers only —
// and returns the state, failing the test on a record the fold rejects.
func foldLive(t testing.TB, records [][]byte) *journalState {
	t.Helper()
	st := newJournalState()
	for i, rec := range records {
		r, err := peekJournalRecord(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		st.apply(r)
	}
	return st
}

// requireSameResume fails unless two histories resume identically: the same
// live jobs in the same order, each with the same spec, job ID, re-attachable
// maps (attempt, worker, waves), spliced reduce outputs and first attempt.
func requireSameResume(t testing.TB, what string, a, b [][]byte) {
	t.Helper()
	ja, _, _, err := replayJournal(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	jb, _, _, err := replayJournal(b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(ja, jb) {
		t.Fatalf("%s: the two histories resume differently:\n %s\n %s", what, describeJobs(ja), describeJobs(jb))
	}
	for i := range ja {
		if fa, fb := ja[i].firstAttempt(), jb[i].firstAttempt(); fa != fb {
			t.Fatalf("%s: ticket %d first attempt %d vs %d", what, ja[i].ticket, fa, fb)
		}
	}
}

func describeJobs(jobs []*journalJob) string {
	var b strings.Builder
	for _, jj := range jobs {
		fmt.Fprintf(&b, "ticket %d job %d:", jj.ticket, jj.jobID)
		for _, m := range slices.Sorted(maps.Keys(jj.maps)) {
			fmt.Fprintf(&b, " map %d=attempt %d on %s", m, jj.maps[m].attempt, jj.maps[m].worker)
		}
		for _, p := range slices.Sorted(maps.Keys(jj.reduces)) {
			fmt.Fprintf(&b, " part %d=%d spills", p, jj.reduces[p].Spills)
		}
		b.WriteString("; ")
	}
	return b.String()
}

// TestJournalLastRouteWins: map 0's speculative clone (attempt 3, worker wA)
// won, wA died, and the still-running original (attempt 2, worker wB) was
// installed in its place — so the journal reads m(0, 3, wA), m(0, 2, wB).
// Resume must re-attach the live route, wB's, read straight or read after a
// compaction. Before the one fold, replay kept the highest attempt (wA's dead
// route) and the compaction index the last record (wB's): the same journal
// resumed differently depending on whether it had been compacted.
func TestJournalLastRouteWins(t *testing.T) {
	h := [][]byte{admitRec(1), mapRec(1, 0, 3, "wA"), mapRec(1, 0, 2, "wB")}
	live, _, _, err := replayJournal(h)
	if err != nil || len(live) != 1 {
		t.Fatalf("replay: %d live, err=%v", len(live), err)
	}
	if jm := live[0].maps[0]; jm == nil || jm.worker != "wB" || jm.attempt != 2 {
		t.Fatalf("resume re-attaches %+v, want the last route installed (attempt 2 on wB)", jm)
	}
	if fa := live[0].firstAttempt(); fa != 3 {
		t.Fatalf("first attempt %d, want 3: past the route that can re-attach", fa)
	}
	requireSameResume(t, "straight vs compacted", h, foldLive(t, h).image())
}

// TestJournalCompactionPreservesResume: over seeded random histories —
// out-of-order attempts, re-executed maps, re-journaled partitions, retired
// and re-admitted tickets, records for tickets never admitted or already
// retired — a journal compacted by the live path's header-only fold resumes
// exactly as the uncompacted journal does, wherever in the history the
// compaction falls: replay(image(apply*(h[:k])) + h[k:]) == replay(h).
func TestJournalCompactionPreservesResume(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h [][]byte
		for n := 5 + rng.Intn(60); n > 0; n-- {
			ticket := uint64(rng.Intn(5)) // few tickets: plenty of collisions
			switch rng.Intn(10) {
			case 0, 1:
				h = append(h, admitRec(ticket))
			case 2:
				h = append(h, encode(&journalRecord{kind: jStart, ticket: ticket, id: 1 + rng.Intn(9)}))
			case 3, 4, 5, 6:
				h = append(h, mapRec(ticket, rng.Intn(4), 1+rng.Intn(8), fmt.Sprintf("w%d", rng.Intn(3))))
			case 7, 8:
				h = append(h, redRec(ticket, rng.Intn(2), rng.Intn(100)))
			case 9:
				retire := &journalRecord{kind: jDone, ticket: ticket}
				if rng.Intn(2) == 0 {
					retire.kind, retire.msg = jAborted, "boom"
				}
				h = append(h, encode(retire))
			}
		}
		what := fmt.Sprintf("seed %d", seed)
		requireSameResume(t, what+", compacted at the end", h, foldLive(t, h).image())
		k := rng.Intn(len(h) + 1)
		requireSameResume(t, fmt.Sprintf("%s, compacted after %d of %d records", what, k, len(h)),
			h, append(foldLive(t, h[:k]).image(), h[k:]...))

		// The image is minimal and stable: folding it changes nothing.
		image := foldLive(t, h).image()
		if again := foldLive(t, image).image(); !reflect.DeepEqual(image, again) {
			t.Fatalf("%s: compacting a compacted journal changed it", what)
		}
	}
}

// TestServiceCompactsLiveJournal drives the live append path across its real
// compaction threshold (file records > 2 x live + 64): 100 re-executions of
// three maps of one admitted job. The file must have been rewritten — it
// holds far fewer than the 102 records appended — and must resume to the
// last attempt of each map, exactly as the service's own fold says.
func TestServiceCompactsLiveJournal(t *testing.T) {
	c, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	s, err := NewService(c, 1, ServiceConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	admit := &journalJob{name: "wordcount", opts: exec.Options{Mappers: 3, Reducers: 1}, input: []core.Record{{Key: "k", Value: "v"}}}
	if err := s.journal(&journalRecord{kind: jAdmit, ticket: 0, admit: admit}); err != nil {
		t.Fatal(err)
	}
	s.journalBestEffort(&journalRecord{kind: jStart, ticket: 0, id: 1})
	for a := 1; a <= 100; a++ {
		s.journalBestEffort(&journalRecord{kind: jMapDone, ticket: 0, id: a % 3,
			mapDone: &journalMap{attempt: a, worker: fmt.Sprintf("w%d", a%5)}})
	}
	onDisk, err := wal.Replay(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 2*5+64 {
		t.Fatalf("journal holds %d records after 102 appends of 5 live ones: it never compacted", len(onDisk))
	}
	live, _, _, err := replayJournal(onDisk)
	if err != nil || len(live) != 1 || live[0].jobID != 1 || len(live[0].maps) != 3 {
		t.Fatalf("resume of the compacted journal: %s err=%v", describeJobs(live), err)
	}
	for m, want := range map[int]int{0: 99, 1: 100, 2: 98} {
		if got := live[0].maps[m].attempt; got != want {
			t.Fatalf("map %d resumes at attempt %d, want the last journaled, %d", m, got, want)
		}
	}
	s.jmu.Lock()
	image := s.jstate.image()
	s.jmu.Unlock()
	requireSameResume(t, "file vs the service's own fold", onDisk, image)
	s.Close()
}

// TestJournalStatsCountLiveMapsOnce: LiveMapDone is the work a resume would
// re-attach, so a re-executed map counts once, and a retired ticket's maps
// not at all — read off the same fold resume and compaction use. A record
// of a kind no fold knows is an error here as it is on resume.
func TestJournalStatsCountLiveMapsOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	log, _, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{
		admitRec(1), mapRec(1, 0, 1, "wA"), mapRec(1, 0, 2, "wB"), mapRec(1, 1, 3, "wA"),
		admitRec(2), mapRec(2, 0, 4, "wA"), encode(&journalRecord{kind: jDone, ticket: 2}),
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ReadJournalStats(path)
	want := JournalStats{Records: 7, Admitted: 2, MapDone: 4, Done: 1, Live: 1, LiveMapDone: 2}
	if err != nil || st != want {
		t.Fatalf("stats %+v err=%v, want %+v", st, err, want)
	}
	if err := log.Append([]byte{'?', 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalStats(path); err == nil {
		t.Fatal("a record of an unknown kind was tallied without error")
	}
	_ = log.Close()
}

// FuzzJournalReplay: no journal — here a concatenation of length-prefixed
// records — panics the resume fold; and one it accepts compacts to an image
// that resumes identically.
func FuzzJournalReplay(f *testing.F) {
	frame := func(recs ...[]byte) []byte {
		var b []byte
		for _, rec := range recs {
			b = append(binary.AppendUvarint(b, uint64(len(rec))), rec...)
		}
		return b
	}
	var all [][]byte
	for _, g := range goldens() {
		if _, ok := g.want.(*journalRecord); ok {
			all = append(all, g.bytes(f))
		}
	}
	f.Add(frame(all...))
	f.Add(frame(all[:4]...))
	f.Add(frame(admitRec(1), mapRec(1, 0, 3, "wA"), mapRec(1, 0, 2, "wB"), redRec(1, 0, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h [][]byte
		for len(data) > 0 {
			n, w := binary.Uvarint(data)
			if w <= 0 || n > uint64(len(data)-w) {
				return
			}
			h = append(h, data[w:w+int(n)])
			data = data[w+int(n):]
		}
		if _, err := foldJournal(h); err != nil {
			return
		}
		requireSameResume(t, "fuzzed journal vs its image", h, foldLive(t, h).image())
	})
}
