package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blmr/internal/core"
)

// roundTrip seals recs as AppendRun does for mpexec's frames and decodes
// them back in place; ok is false on a decode error.
func roundTrip(recs []core.Record) (got []core.Record, ok bool) {
	got, err := DecodeRun(nil, AppendRun(nil, recs))
	return got, err == nil
}

func TestRoundTrip(t *testing.T) {
	recs := []core.Record{
		{Key: "a", Value: "1"},
		{Key: "", Value: ""},
		{Key: "long-key-" + strings.Repeat("x", 200), Value: strings.Repeat("v", 1000)},
		{Key: "\x00binary\xff", Value: "\x1f"},
	}
	got, ok := roundTrip(recs)
	if !ok || len(got) != len(recs) {
		t.Fatalf("decoded %d records (clean stream: %v), want %d", len(got), ok, len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], recs[i])
		}
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	f := func(key, val string) bool {
		r := core.Record{Key: key, Value: val}
		buf := AppendRecord(nil, r)
		return int64(len(buf)) == EncodedSize(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pairs [][2]string) bool {
		recs := make([]core.Record, len(pairs))
		for i, p := range pairs {
			recs[i] = core.Record{Key: p[0], Value: p[1]}
		}
		got, ok := roundTrip(recs)
		if !ok || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpillRunRoundTripProperty models a spill run: records are key-sorted
// before sealing with None, then decoded back through the streaming reader
// over a 16-byte read buffer. Decoding must preserve exact bytes and the
// sorted order, regardless of content (binary keys, embedded NULs, empty
// strings).
func TestSpillRunRoundTripProperty(t *testing.T) {
	f := func(pairs [][2]string) bool {
		recs := make([]core.Record, len(pairs))
		for i, p := range pairs {
			recs[i] = core.Record{Key: p[0], Value: p[1]}
		}
		slices.SortStableFunc(recs, func(a, b core.Record) int {
			return strings.Compare(a.Key, b.Key)
		})
		buf := sealRun(t, recs, None)
		sr := NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(buf), 16))
		var got []core.Record
		for {
			r, ok := sr.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if sr.Err() != nil || len(got) != len(recs) {
			return false
		}
		prev := ""
		for i := range recs {
			if got[i] != recs[i] || got[i].Key < prev {
				return false
			}
			prev = got[i].Key
		}
		// Re-sealing the decoded stream must reproduce the exact bytes.
		return bytes.Equal(buf, sealRun(t, got, None))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReaderTruncation: every possible truncation point of a None run,
// sealed a block per record and read through a 16-byte buffered stream, must
// yield either a clean shorter run (cut exactly between blocks) or
// ErrCorrupt — never a panic, never a phantom record — with and without an
// arena.
func TestStreamReaderTruncation(t *testing.T) {
	recs := []core.Record{
		{Key: "alpha", Value: "1"},
		{Key: "beta", Value: strings.Repeat("v", 300)},
		{Key: "\x00bin\xff", Value: ""},
	}
	buf, _ := encodeRun(t, recs, None, 1) // a block per record
	bounds := blockBoundaries(t, buf)
	boundaries := map[int]int{} // truncation offset -> complete records
	n := 0
	for off := 0; off <= len(buf); off++ {
		if bounds[off] {
			boundaries[off] = n
			n++
		}
	}
	if n != len(recs)+1 {
		t.Fatalf("found %d block boundaries, want %d", n, len(recs)+1)
	}
	for cut := 0; cut <= len(buf); cut++ {
		var dec SectionDecoder
		for name, rd := range map[string]RecordReader{
			"stream": NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(buf[:cut]), 16)),
			"arena":  dec.Reset(bytes.NewReader(buf[:cut]), new(Arena)),
		} {
			n := 0
			for r, ok := rd.Next(); ok; r, ok = rd.Next() {
				if n >= len(recs) || r != recs[n] {
					t.Fatalf("%s: cut=%d: record %d = %v, want a prefix of %v", name, cut, n, r, recs)
				}
				n++
			}
			if want, clean := boundaries[cut]; clean {
				if rd.Err() != nil {
					t.Fatalf("%s: cut=%d at block boundary: unexpected error %v", name, cut, rd.Err())
				}
				if n != want {
					t.Fatalf("%s: cut=%d: decoded %d records, want %d", name, cut, n, want)
				}
			} else if !errors.Is(rd.Err(), ErrCorrupt) {
				t.Fatalf("%s: cut=%d mid-block: err=%v, want ErrCorrupt", name, cut, rd.Err())
			}
		}
	}
}

// TestNoneCorruptLengthNoHugeAlloc: a None run whose block header, or a
// record length inside a block, claims about 1 GiB must fail with
// ErrCorrupt after reading only the bytes actually present — not allocate
// the claimed length up front — with and without an arena.
func TestNoneCorruptLengthNoHugeAlloc(t *testing.T) {
	hugeBlock := []byte("BLC3\x00")                       // a None run header
	hugeBlock = binary.AppendUvarint(hugeBlock, 1<<30)    // rawLen
	hugeBlock = binary.AppendUvarint(hugeBlock, 1<<30<<2) // stored, encLen = rawLen
	hugeBlock = append(hugeBlock, 0, 0, 0, 0)             // checksum
	hugeBlock = append(hugeBlock, "only a few real bytes"...)
	payload := binary.AppendUvarint(nil, 1<<30) // key "length": 1GiB
	payload = append(payload, "only a few real bytes"...)
	hugeRecord := []byte("BLC3\x00")
	hugeRecord = binary.AppendUvarint(hugeRecord, uint64(len(payload)))
	hugeRecord = binary.AppendUvarint(hugeRecord, uint64(len(payload))<<2)
	hugeRecord = binary.LittleEndian.AppendUint32(hugeRecord, crc32.Checksum(payload, crcTable))
	hugeRecord = append(hugeRecord, payload...)
	for name, run := range map[string][]byte{"block length": hugeBlock, "record length": hugeRecord} {
		for _, arena := range []*Arena{nil, new(Arena)} {
			before := heapInUse()
			var dec SectionDecoder
			rd := dec.Reset(bytes.NewReader(run), arena)
			if _, ok := rd.Next(); ok {
				t.Fatalf("%s: corrupt run yielded a record", name)
			}
			if !errors.Is(rd.Err(), ErrCorrupt) {
				t.Fatalf("%s: Err() = %v, want ErrCorrupt", name, rd.Err())
			}
			if grown := heapInUse() - before; grown > 16<<20 {
				t.Fatalf("%s: decoding a corrupt length allocated %d MB up front", name, grown>>20)
			}
		}
	}
}

// TestNoneLargeRecord: a record larger than an arena chunk seals into one
// block of its own and round-trips through both decoders, arena or not.
func TestNoneLargeRecord(t *testing.T) {
	recs := []core.Record{{Key: "a", Value: "1"}, {Key: "big", Value: strings.Repeat("x", 300<<10)}, {Key: "z", Value: "2"}}
	run := sealRun(t, recs, None)
	var dec SectionDecoder
	for name, rd := range map[string]RecordReader{
		"serial": NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(run), 16)),
		"arena":  dec.Reset(bytes.NewReader(run), new(Arena)),
	} {
		got, err := drainRecords(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireRecords(t, name, recs, got)
	}
}

func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestNoneStringsDoNotAliasScratch: read off a stream without an arena, a
// None run's block buffers are reused block after block, so every string
// must be a copy: records from earlier blocks stay intact once later blocks
// are decoded. Read in place, they view the run, which nothing reuses.
func TestNoneStringsDoNotAliasScratch(t *testing.T) {
	var recs []core.Record
	for i := 0; i < 3; i++ {
		recs = append(recs, core.Record{Key: strings.Repeat("k", 50), Value: strings.Repeat(string(rune('a'+i)), 50)})
	}
	run, _ := encodeRun(t, recs, None, 1) // a block per record
	for name, rd := range map[string]RecordReader{
		"stream":   NewRunDecoder(bytes.NewReader(run)),
		"in place": NewRunDecoderBytes(run, None),
	} {
		got, err := drainRecords(rd)
		if err != nil {
			t.Fatal(err)
		}
		requireRecords(t, name+": after the last block", recs, got)
	}
}

// TestEmptyBuffer: an empty record list is a header-only run, which
// decodes to no records; an empty buffer is not a run at all.
func TestEmptyBuffer(t *testing.T) {
	empty := AppendRun(nil)
	if recs, err := DecodeRun(nil, empty); err != nil || recs != nil {
		t.Fatalf("empty run %q decoded to %v, %v; want no records and no error", empty, recs, err)
	}
	if _, err := DecodeRun(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty buffer: err %v, want ErrCorrupt", err)
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	r := core.Record{Key: "some-key-123", Value: "some-value-payload"}
	buf := make([]byte, 0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(buf) > 1<<19 {
			buf = buf[:0]
		}
		buf = AppendRecord(buf, r)
	}
}
