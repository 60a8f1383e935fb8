package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"blmr/internal/core"
)

// refDecode is a byte-at-a-time decoder of a bare record stream, kept as
// FuzzDecodeViews' reference: one ReadByte per uvarint byte, then a read of
// the body. clean is false when the stream is corrupt.
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
		if n > uint64(r.Len()) {
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

// FuzzDecodeViews holds DecodeViews, mpexec's frame parser, to refDecode on
// arbitrary bytes: asked for as many records as the reference decodes, it
// returns the same records, views into the input; asked for one more, it
// fails with ErrCorrupt wherever the reference ends (cleanly or not).
func FuzzDecodeViews(f *testing.F) {
	valid := AppendRecords(nil, []core.Record{{Key: "a", Value: "1"}, {Key: "", Value: ""}, {Key: "\x00k", Value: strings.Repeat("v", 300)}})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add(binary.AppendUvarint(nil, 1<<31+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		want, _ := refDecode(b)
		views, err := DecodeViews(nil, b, len(want))
		if err != nil || !slices.Equal(views, want) {
			t.Fatalf("DecodeViews of %d records: %d records, err %v", len(want), len(views), err)
		}
		for _, r := range views {
			for _, s := range []string{r.Key, r.Value} {
				if p := unsafe.StringData(s); len(s) > 0 && (uintptr(unsafe.Pointer(p)) < uintptr(unsafe.Pointer(&b[0])) ||
					uintptr(unsafe.Pointer(p))+uintptr(len(s)) > uintptr(unsafe.Pointer(&b[0]))+uintptr(len(b))) {
					t.Fatalf("DecodeViews returned a string outside its input")
				}
			}
		}
		if _, err := DecodeViews(nil, b, len(want)+1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeViews past the last record: err %v, want ErrCorrupt", err)
		}
	})
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
