package mpexec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
)

// populatedOptions sets every field of exec.Options to a distinct non-zero
// value by reflection, so a field added later is populated here without
// anyone remembering to.
func populatedOptions(t *testing.T) exec.Options {
	t.Helper()
	var o exec.Options
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8:
			f.SetUint(uint64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case reflect.String:
			f.SetString("set")
		default:
			t.Fatalf("exec.Options.%s has kind %v: teach populatedOptions (and putOpts) about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return o
}

// TestOptsRoundTrip: the one exec.Options wire codec carries every field
// through both of its users, the 'J' job-open frame and the journal's 'a'
// admit record. The only fields that may differ are the two putOpts
// documents: Transport (always TCP across processes) and SpillDir (local to
// the reading side). A new Options field that putOpts/opts do not carry
// comes back zero and fails here.
func TestOptsRoundTrip(t *testing.T) {
	sent := populatedOptions(t)
	want := sent
	want.Transport = shuffle.TCP

	want.SpillDir = "/worker/local"
	id, name, got, err := decodeJobStart(encodeJobStart(7, "wordcount", sent), exec.Options{SpillDir: want.SpillDir})
	if err != nil || id != 7 || name != "wordcount" {
		t.Fatalf("'J' frame: id=%d name=%q err=%v", id, name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("'J' frame dropped a field:\n got %+v\nwant %+v", got, want)
	}

	want.SpillDir = ""
	input := []core.Record{{Key: "k", Value: "v"}}
	live, _, _, err := replayJournal([][]byte{encodeJournalAdmit(3, "wordcount", sent, input)})
	if err != nil || len(live) != 1 {
		t.Fatalf("journal admit: %d live jobs, err=%v", len(live), err)
	}
	if !reflect.DeepEqual(live[0].opts, want) {
		t.Fatalf("journal admit dropped a field:\n got %+v\nwant %+v", live[0].opts, want)
	}
	if !reflect.DeepEqual(live[0].input, input) {
		t.Fatalf("journal admit input: %v", live[0].input)
	}
}

// TestOptsRejectOtherLayouts: the options layout leads with its field count,
// and a record with any other count is refused outright. The first case is
// byte for byte what the binary before the count existed journaled — 17 bare
// values, Mappers first: replay must fail naming the mismatch, not read the
// thirteenth value as the input's record count. The others are this layout
// with a field added or dropped, on the 'J' frame.
func TestOptsRejectOtherLayouts(t *testing.T) {
	old := binary.AppendUvarint([]byte{jAdmit}, 3)
	old = putStr(old, "wordcount")
	for _, v := range []uint64{6, 3, 0, 65536, 64 << 20, 16 << 20, 64, 256, 4096, 64, 0, 0, 0, 0, 0,
		math.Float64bits(0.75), uint64(time.Second)} {
		old = binary.AppendUvarint(old, v)
	}
	old = putRecords(old, []core.Record{{Key: "k", Value: "v"}})
	if _, _, _, err := replayJournal([][]byte{old}); err == nil || !strings.Contains(err.Error(), "another build") {
		t.Fatalf("replay of the previous binary's admit record: err = %v, want a field-count mismatch", err)
	}

	for _, n := range []uint64{optsFields - 1, optsFields + 1} {
		frame := binary.AppendUvarint(nil, 7)
		frame = putStr(frame, "wordcount")
		frame = binary.AppendUvarint(frame, n)
		for i := uint64(0); i < n; i++ {
			frame = binary.AppendUvarint(frame, 1)
		}
		if _, _, _, err := decodeJobStart(frame, exec.Options{}); err == nil || !strings.Contains(err.Error(), "another build") {
			t.Fatalf("'J' frame with %d option fields: err = %v, want a field-count mismatch", n, err)
		}
	}
}

// TestDecodedRecordsOutliveNextFrame pins the invariant decode documents:
// decoded records are views into the frame payload, so readMsg must hand
// out a fresh payload per frame. Two same-sized 'M' frames are read off one
// bufio.Reader; decoding the second must leave the first's records intact.
func TestDecodedRecordsOutliveNextFrame(t *testing.T) {
	split := func(c string) []core.Record {
		recs := make([]core.Record, 50)
		for i := range recs {
			recs[i] = core.Record{Key: strings.Repeat(c, 10+i), Value: strings.Repeat(c, 20)}
		}
		return recs
	}
	var conn bytes.Buffer
	for i, c := range []string{"a", "b"} {
		m := mapTask{job: 1, t: exec.MapTask{Index: i, Split: split(c)}}
		if err := writeMsg(&conn, msgMapTask, encode(&m)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&conn)
	var first, second mapTask
	for _, m := range []*mapTask{&first, &second} {
		typ, payload, err := readMsg(br)
		if err != nil || typ != msgMapTask {
			t.Fatalf("readMsg: type %q, err %v", typ, err)
		}
		if err := decode(payload, m); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.t.Split, split("a")) || !slices.Equal(second.t.Split, split("b")) {
		t.Fatal("decoding the next frame changed an earlier frame's records")
	}
}

// TestReduceTaskRejectsNegativeMapCount: an 'R' frame whose map count is the
// 10-byte uvarint 2^64-1 reads as -1 once it is an int. It must not decode:
// the worker sizes the partition's reduce source by it, and a negative size
// panicked the worker's read loop.
func TestReduceTaskRejectsNegativeMapCount(t *testing.T) {
	payload := []byte{7, 2}
	payload = binary.AppendUvarint(payload, math.MaxUint64)
	payload = append(payload, 0) // no routed maps
	var rt reduceTask
	if err := decode(payload, &rt); err == nil {
		t.Fatalf("'R' frame with map count 2^64-1 decoded to %+v", rt)
	}
}

// TestReduceReplyChunks: a reduce reply encodes its output straight from
// the sink's chunks to the bytes the same records make as one list, and
// decodes as one chunk — for no records, one, either side of the sink's
// chunk boundaries (256 and 8192 records), and many chunks.
func TestReduceReplyChunks(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 8191, 8192, 8193, 5*8192 + 17} {
		sink := core.NewRecordSink()
		flat := make([]core.Record, n)
		for i := range flat {
			flat[i] = core.Record{Key: strconv.Itoa(i), Value: "v"}
			sink.Write(flat[i].Key, flat[i].Value)
		}
		chunked := encode(&reduceDone{job: 7, partition: 1, res: exec.ReduceResult{Output: sink.Chunks()}})
		var one core.Chunks
		if n > 0 {
			one = core.Chunks{flat}
		}
		if want := encode(&reduceDone{job: 7, partition: 1, res: exec.ReduceResult{Output: one}}); !bytes.Equal(chunked, want) {
			t.Fatalf("%d records: the chunked reply encodes to %d bytes unlike the flat one's %d", n, len(chunked), len(want))
		}
		var rd reduceDone
		if err := decode(chunked, &rd); err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if len(rd.res.Output) > 1 || !slices.Equal(rd.res.Output.AppendTo(nil), flat) {
			t.Fatalf("%d records: decoded %d chunks of %d records, want the records as one chunk", n, len(rd.res.Output), rd.res.Output.Len())
		}
	}
}
