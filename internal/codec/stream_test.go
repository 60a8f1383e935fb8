package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"blmr/internal/core"
)

// refDecode is the byte-at-a-time decoder the chunked StreamReader
// replaced, kept as FuzzStreamReader's reference: one ReadByte per uvarint
// byte, then a read of the body. clean is false when the stream is corrupt.
func refDecode(b []byte) (recs []core.Record, clean bool) {
	r := bytes.NewReader(b)
	str := func(atRecordStart bool) (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			if err == io.EOF && atRecordStart {
				return "", io.EOF
			}
			return "", ErrCorrupt
		}
		if n > uint64(1<<31) || n > uint64(r.Len()) {
			return "", ErrCorrupt
		}
		body := make([]byte, n)
		io.ReadFull(r, body)
		return string(body), nil
	}
	for {
		key, err := str(true)
		if err != nil {
			return recs, err == io.EOF
		}
		val, err := str(false)
		if err != nil {
			return recs, false
		}
		recs = append(recs, core.Record{Key: key, Value: val})
	}
}

// FuzzStreamReader decodes arbitrary bytes through the chunked
// StreamReader, read whole, half at a time and one byte at a time, each
// with and without an arena, through NewStreamReaderBytes and through
// DecodeViews, and holds every one to refDecode: the same records and the
// same outcome, a clean end or ErrCorrupt. The committed corpus in
// testdata/fuzz/FuzzStreamReader adds streams whose first 64 KiB read ends
// inside a record: varint-straddles-64k splits a 2-byte key length across
// the boundary (its first record is exactly 65535 bytes), and
// body-straddles-64k splits a 70000-byte value.
func FuzzStreamReader(f *testing.F) {
	valid := AppendRecords(nil, []core.Record{{Key: "a", Value: "1"}, {Key: "", Value: ""}, {Key: "\x00k", Value: strings.Repeat("v", 300)}})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add(binary.AppendUvarint(nil, 1<<31+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, clean := refDecode(b)
		check := func(name string, rr RecordReader) {
			t.Helper()
			var got []core.Record
			for r, ok := rr.Next(); ok; r, ok = rr.Next() {
				got = append(got, r)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: decoded %d records, reference %d", name, len(got), len(want))
			}
			if err := rr.Err(); clean != (err == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("%s: err %v, reference clean=%v", name, err, clean)
			}
		}
		readers := map[string]func() io.Reader{
			"whole":    func() io.Reader { return bytes.NewReader(b) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		}
		for name, r := range readers {
			check(name, NewStreamReader(r()))
			// Two streams through one arena-backed reader: the second fills
			// the first's chunk tail and must leave its records intact.
			sr := &StreamReader{arena: new(Arena)}
			sr.Reset(r())
			first := drain(sr)
			sr.Reset(r())
			check(name+"+arena", sr)
			if !slices.Equal(first, want) {
				t.Fatalf("%s+arena: a second stream overwrote the first's records", name)
			}
		}
		check("bytes", NewStreamReaderBytes(b))
		views, err := DecodeViews(nil, b, len(want))
		if err != nil || !slices.Equal(views, want) {
			t.Fatalf("DecodeViews of %d records: %d records, err %v", len(want), len(views), err)
		}
		if _, err := DecodeViews(nil, b, len(want)+1); clean && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeViews past the last record: err %v, want ErrCorrupt", err)
		}
	})
}

func drain(rr RecordReader) []core.Record {
	var recs []core.Record
	for r, ok := rr.Next(); ok; r, ok = rr.Next() {
		recs = append(recs, r)
	}
	return recs
}

// TestAppendRecordsAllocatesOnce: encoding grows the buffer once, to the
// exact size EncodedSize sums.
func TestAppendRecordsAllocatesOnce(t *testing.T) {
	recs := make([]core.Record, 1000)
	for i := range recs {
		recs[i] = core.Record{Key: core.EncodeUint64(uint64(i)), Value: strings.Repeat("v", i%300)}
	}
	var out []byte
	if allocs := testing.AllocsPerRun(20, func() { out = AppendRecords(nil, recs) }); allocs != 1 {
		t.Fatalf("AppendRecords(nil, %d records) made %.0f allocations, want 1", len(recs), allocs)
	}
	var size int64
	for _, r := range recs {
		size += EncodedSize(r)
	}
	if int64(len(out)) != size {
		t.Fatalf("encoded %d bytes, EncodedSize sums %d", len(out), size)
	}
}
