package mpexec

import (
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
	"blmr/internal/store"
	"blmr/internal/wal"
)

// golden is one frame payload or journal record: its decoded value, and the
// exact bytes the commit before the codecs were unified (9c166b5) put on the
// wire or in the journal for it — printed there by its own encoders,
// including the five ('H', 'M', 'r', 'j', 'F') that were then open-coded in
// coordinator.go and worker.go. The bytes must not change by accident: a
// worker and a coordinator, or a journal and the binary resuming it, may be
// one commit apart. They changed once on purpose, when waves and segments
// stopped naming their codec (every sealed run's header names it): the 'm',
// 'R' and 'S' frames lost a field per wave or segment, and the journal's map
// record lost the same field and became kind 'w' (parentMapRecord).
type golden struct {
	name  string
	hex   string
	want  message
	fresh func() message
}

func goldens() []golden {
	opts := exec.Options{Mappers: 6, Reducers: 3, Mode: exec.Pipelined, SpillBytes: 65536,
		MergeFanIn: 16, BatchSize: 256, QueueCap: 64, Store: store.SpillMerge,
		Compression: codec.DeltaBlock, DecodeWorkers: 2, Staged: true, Speculative: true}
	decoded := opts
	decoded.Transport = shuffle.TCP // not on the wire: every decode sets it
	recs := []core.Record{{Key: "k1", Value: "v1"}, {Key: "key-two", Value: "value two"}}
	waves := []shuffle.Wave{
		{FileID: 300, CRC: 0xdeadbeef, Spans: []shuffle.Span{{Off: 0, N: 100}, {Off: 100, N: 0}, {Off: 100, N: 250}}},
		{FileID: 301, CRC: 7, Spans: []shuffle.Span{{Off: 0, N: 5}}},
	}
	seg := shuffle.Segment{Addr: "127.0.0.1:40123", FileID: 300, Off: 100, N: 250}
	res := exec.ReduceResult{Spills: 1, PeakPartialBytes: 4096, MergePasses: 2, FetchBytes: 12000, Output: core.Chunks{recs}}
	rec := func() message { return new(journalRecord) }
	return []golden{
		{"H", "0f3132372e302e302e313a343031323306772d34323432",
			&hello{"127.0.0.1:40123", "w-4242"}, func() message { return new(hello) }},
		{"A", "010702ac02effdb6f50dad0207",
			&reattach{[]sealedJob{{7, []sealedFile{{300, 0xdeadbeef}, {301, 7}}}}}, func() message { return new(reattach) }},
		{"J", "0709776f7264636f756e740c060301808004108002400102020101",
			&jobStart{7, "wordcount", decoded}, func() message { return new(jobStart) }},
		{"j", "07", &jobEnd{7}, func() message { return new(jobEnd) }},
		{"M", "07ac020502026b31027631076b65792d74776f0976616c75652074776f",
			&mapTask{7, exec.MapTask{Index: 300, Attempt: 5, Split: recs}}, func() message { return new(mapTask) }},
		{"m", "07ac0205b96002f0a204e0c5080902ac02effdb6f50d030064640064fa01ad0207010005",
			&mapDone{job: 7, index: 300, attempt: 5, shuffleRecords: 12345, spills: 2, spilledBytes: 70000,
				rawSpilledBytes: 140000, serverOpens: 9, waves: waves}, func() message { return new(mapDone) }},
		{"m head", "07ac0205b96002f0a204e0c5080902ac02effdb6f50d030064640064fa01ad0207010005",
			&replyHead{7, 300}, func() message { return new(replyHead) }},
		{"R", "070206020001010f3132372e302e302e313a3430313233ac0264fa01030400",
			&reduceTask{7, 2, 6, []mapSegs{{0, 1, []shuffle.Segment{seg}}, {3, 4, nil}}}, func() message { return new(reduceTask) }},
		{"S", "0702030a010f3132372e302e302e313a3430313233ac0264fa01",
			&segPush{7, 2, mapSegs{3, 9, []shuffle.Segment{seg}}}, func() message { return new(segPush) }},
		{"S invalidate", "0702030000",
			&segPush{7, 2, mapSegs{3, -1, nil}}, func() message { return new(segPush) }},
		{"r", "070201802002f4038407e05d030902026b31027631076b65792d74776f0976616c75652074776f",
			&reduceDone{job: 7, partition: 2, res: res, spilledBytes: 500, rawSpilledBytes: 900, fetchDials: 3, serverOpens: 9},
			func() message { return new(reduceDone) }},
		{"r head", "070201802002f4038407e05d030902026b31027631076b65792d74776f0976616c75652074776f",
			&replyHead{7, 2}, func() message { return new(replyHead) }},
		{"E", "076dac0204626f6f6d", &taskError{7, msgMapDone, 300, "boom"}, func() message { return new(taskError) }},
		{"F", "070b7461736b206661696c6564", &abort{7, "task failed"}, func() message { return new(abort) }},

		{"journal a", "610309776f7264636f756e740c06030180800410800240010202010102026b31027631076b65792d74776f0976616c75652074776f",
			&journalRecord{kind: jAdmit, ticket: 3, admit: &journalJob{name: "wordcount", opts: decoded, input: recs}}, rec},
		{"journal s", "730307", &journalRecord{kind: jStart, ticket: 3, id: 7}, rec},
		{"journal w", "7703ac020506772d34323432b9600202ac02effdb6f50d030064640064fa01ad0207010005",
			&journalRecord{kind: jMapDone, ticket: 3, id: 300, mapDone: &journalMap{attempt: 5, worker: "w-4242",
				shuffleRecords: 12345, spills: 2, waves: waves}}, rec},
		{"journal r", "72030201802002e05d02026b31027631076b65792d74776f0976616c75652074776f",
			&journalRecord{kind: jReduceDone, ticket: 3, id: 2, reduce: &res}, rec},
		{"journal d", "6403", &journalRecord{kind: jDone, ticket: 3}, rec},
		{"journal x", "780304626f6f6d", &journalRecord{kind: jAborted, ticket: 3, msg: "boom"}, rec},
	}
}

func (g golden) bytes(t testing.TB) []byte {
	b, err := hex.DecodeString(g.hex)
	if err != nil {
		t.Fatalf("%s: bad hex: %v", g.name, err)
	}
	return b
}

// prefix reports whether the row's layout is a deliberate prefix of a longer
// payload (the reply head peeked off an 'm' or 'r'), so its encoding is only
// the start of the golden bytes and a cut past it still decodes.
func (g golden) prefix() bool { _, ok := g.want.(*replyHead); return ok }

// TestGoldenBytes: every frame and journal record encodes to the parent's
// exact bytes and decodes from them to the same value.
func TestGoldenBytes(t *testing.T) {
	for _, g := range goldens() {
		want := g.bytes(t)
		got := encode(g.want)
		if g.prefix() {
			want = want[:len(got)]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: encodes to\n %x, the parent wrote\n %x", g.name, got, want)
		}
		m := g.fresh()
		if err := decode(g.bytes(t), m); err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
		} else if !reflect.DeepEqual(m, g.want) {
			t.Errorf("%s: decodes to\n %+v, want\n %+v", g.name, m, g.want)
		}
	}
}

// TestDecodeTruncated: cut at every offset, every golden payload is an
// error from its decoder — never a panic, never a silently shorter value.
func TestDecodeTruncated(t *testing.T) {
	for _, g := range goldens() {
		full := g.bytes(t)
		if g.prefix() {
			full = encode(g.want)
		}
		for cut := 0; cut < len(full); cut++ {
			if err := decode(full[:cut], g.fresh()); err == nil {
				t.Errorf("%s: cut to %d of %d bytes decoded without error", g.name, cut, len(full))
			}
		}
	}
	if _, err := peekJournalRecord(nil); err == nil {
		t.Errorf("an empty journal record peeked without error")
	}
}

// parentMapRecord is a journal map record as it was written while waves
// named their codec: kind 'm', then the layout of "journal w" with a codec
// field after each wave's file ID.
const parentMapRecord = "6d03ac020506772d34323432b9600202ac0202effdb6f50d030064640064fa01ad020007010005"

// TestJournalRejectsParentMapRecord: a journal holding a map record of the
// layout before waves lost their codec field fails replay, in the fold and
// in a resuming service alike, rather than being read with its fields
// shifted.
func TestJournalRejectsParentMapRecord(t *testing.T) {
	old, err := hex.DecodeString(parentMapRecord)
	if err != nil {
		t.Fatal(err)
	}
	admit := encodeJournalAdmit(3, "wordcount", exec.Options{Mappers: 1, Reducers: 1}, nil)
	start := encode(&journalRecord{kind: jStart, ticket: 3, id: 7})
	if _, err := foldJournal([][]byte{admit, start, old}); err == nil || !strings.Contains(err.Error(), "unknown journal record kind") {
		t.Fatalf("fold of a parent-layout map record: err %v, want an unknown kind", err)
	}
	dir := t.TempDir()
	log, _, err := wal.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{admit, start, old} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resolve := func(string) (exec.Job, bool) { return exec.Job{}, true }
	if s, err := NewService(c, 1, ServiceConfig{StateDir: dir, Resolver: resolve}); err == nil {
		s.Close()
		t.Fatal("a service resumed a journal holding a parent-layout map record")
	}
}

// TestDecodeHugeLengths: a length or count field of 2^63 — negative once it
// is an int — or merely larger than the payload could hold is an error
// before anything is sliced or sized by it. A 2^63 string length used to
// panic the coordinator from any TCP peer's hello, and -resume from a
// journal on disk; a re-attach count used to size two maps unchecked.
func TestDecodeHugeLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	big := binary.AppendUvarint(nil, 1<<30)
	for _, tc := range []struct {
		name    string
		payload []byte
		m       message
	}{
		{"hello addr length 2^63", huge, new(hello)},
		{"abort message length 2^63", append([]byte{7}, huge...), new(abort)},
		{"journal abort message length 2^63", append([]byte{jAborted, 3}, huge...), new(journalRecord)},
		{"journal admit name length 2^63", append([]byte{jAdmit, 3}, huge...), new(journalRecord)},
		{"reattach job count 2^30", big, new(reattach)},
		{"reattach file count 2^30", append([]byte{1, 7}, big...), new(reattach)},
		{"map split record count 2^63", append([]byte{7, 0, 1}, huge...), new(mapTask)},
		{"wave count 2^30", append([]byte{7, 0, 1, 0, 0, 0, 0, 0}, big...), new(mapDone)},
	} {
		if err := decode(tc.payload, tc.m); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// FuzzFrameDecoders: no payload panics any frame's or journal record's
// decoder, and whatever decodes re-encodes to something that decodes to the
// same value.
func FuzzFrameDecoders(f *testing.F) {
	rows := goldens()
	for i, g := range rows {
		f.Add(uint8(i), g.bytes(f))
	}
	f.Fuzz(func(t *testing.T, row uint8, payload []byte) {
		g := rows[int(row)%len(rows)]
		m := g.fresh()
		if decode(payload, m) != nil {
			return
		}
		again := g.fresh()
		if err := decode(encode(m), again); err != nil {
			t.Fatalf("%s: %x decoded to %+v, whose encoding does not decode: %v", g.name, payload, m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%s: %x decoded to\n %+v, re-encoded and decoded to\n %+v", g.name, payload, m, again)
		}
	})
}
