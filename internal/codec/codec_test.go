package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blmr/internal/core"
)

// decodeRecords decodes every record of an in-memory buffer; ok is false when
// the stream is corrupt.
func decodeRecords(buf []byte) (recs []core.Record, ok bool) {
	sr := NewStreamReaderBytes(buf)
	for {
		r, more := sr.Next()
		if !more {
			return recs, sr.Err() == nil
		}
		recs = append(recs, r)
	}
}

func TestRoundTrip(t *testing.T) {
	recs := []core.Record{
		{Key: "a", Value: "1"},
		{Key: "", Value: ""},
		{Key: "long-key-" + strings.Repeat("x", 200), Value: strings.Repeat("v", 1000)},
		{Key: "\x00binary\xff", Value: "\x1f"},
	}
	got, ok := decodeRecords(AppendRecords(nil, recs))
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
		got, ok := decodeRecords(AppendRecords(nil, recs))
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
// before encoding, then decoded back through the streaming reader. Decoding
// must preserve exact bytes and the sorted order, regardless of content
// (binary keys, embedded NULs, empty strings).
func TestSpillRunRoundTripProperty(t *testing.T) {
	f := func(pairs [][2]string) bool {
		recs := make([]core.Record, len(pairs))
		for i, p := range pairs {
			recs[i] = core.Record{Key: p[0], Value: p[1]}
		}
		slices.SortStableFunc(recs, func(a, b core.Record) int {
			return strings.Compare(a.Key, b.Key)
		})
		buf := AppendRecords(nil, recs)
		sr := NewStreamReader(bufio.NewReaderSize(bytes.NewReader(buf), 16))
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
		// Re-encoding the decoded stream must reproduce the exact bytes.
		return bytes.Equal(buf, AppendRecords(nil, got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReaderTruncation: every possible truncation point of a valid
// stream must yield either a clean shorter stream (cut exactly between
// records) or ErrCorrupt — never a panic, never a phantom record.
func TestStreamReaderTruncation(t *testing.T) {
	recs := []core.Record{
		{Key: "alpha", Value: "1"},
		{Key: "beta", Value: strings.Repeat("v", 300)},
		{Key: "\x00bin\xff", Value: ""},
	}
	buf := AppendRecords(nil, recs)
	boundaries := map[int]int{0: 0} // truncation offset -> complete records
	off := 0
	for i, r := range recs {
		off += int(EncodedSize(r))
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(buf); cut++ {
		sr := NewStreamReader(bufio.NewReaderSize(bytes.NewReader(buf[:cut]), 16))
		n := 0
		for {
			r, ok := sr.Next()
			if !ok {
				break
			}
			if r != recs[n] {
				t.Fatalf("cut=%d: record %d = %v, want %v", cut, n, r, recs[n])
			}
			n++
		}
		if want, clean := boundaries[cut]; clean {
			if sr.Err() != nil {
				t.Fatalf("cut=%d at record boundary: unexpected error %v", cut, sr.Err())
			}
			if n != want {
				t.Fatalf("cut=%d: decoded %d records, want %d", cut, n, want)
			}
		} else if !errors.Is(sr.Err(), ErrCorrupt) {
			t.Fatalf("cut=%d mid-record: err=%v, want ErrCorrupt", cut, sr.Err())
		}
	}
}

// TestStreamReaderCorruptLengthNoHugeAlloc: a bit-flipped length prefix
// claiming a ~1GB value must fail with ErrCorrupt after reading only the
// bytes actually present — not allocate the claimed length up front.
func TestStreamReaderCorruptLengthNoHugeAlloc(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1<<30) // key "length": 1GiB
	buf = append(buf, []byte("only a few real bytes")...)
	before := heapInUse()
	sr := NewStreamReader(bytes.NewReader(buf))
	if _, ok := sr.Next(); ok {
		t.Fatal("corrupt stream yielded a record")
	}
	if !errors.Is(sr.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", sr.Err())
	}
	if grown := heapInUse() - before; grown > 16<<20 {
		t.Fatalf("decoding a corrupt length allocated %d MB up front", grown>>20)
	}
}

// TestStreamReaderLargeValue: genuinely large values (crossing the chunked
// read path) still round-trip.
func TestStreamReaderLargeValue(t *testing.T) {
	rec := core.Record{Key: "big", Value: strings.Repeat("x", 300<<10)}
	sr := NewStreamReader(bytes.NewReader(AppendRecord(nil, rec)))
	got, ok := sr.Next()
	if !ok || sr.Err() != nil {
		t.Fatalf("ok=%v err=%v", ok, sr.Err())
	}
	if got != rec {
		t.Fatal("large value corrupted by chunked decode")
	}
}

func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

func TestStreamReaderScratchNotAliased(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = AppendRecord(buf, core.Record{Key: strings.Repeat("k", 50), Value: strings.Repeat(string(rune('a'+i)), 50)})
	}
	sr := NewStreamReader(bytes.NewReader(buf))
	var vals []string
	for {
		r, ok := sr.Next()
		if !ok {
			break
		}
		vals = append(vals, r.Value)
	}
	if vals[0] == vals[1] || vals[1] == vals[2] {
		t.Fatal("decoded strings alias the scratch buffer")
	}
	if vals[0] != strings.Repeat("a", 50) {
		t.Fatalf("vals[0] corrupted: %q", vals[0])
	}
}

func TestEmptyBuffer(t *testing.T) {
	if recs, ok := decodeRecords(nil); !ok || recs != nil {
		t.Fatalf("empty buffer decoded to %v (clean stream: %v), want no records and no error", recs, ok)
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
