package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"blmr/internal/core"
)

// FuzzDecodeRun holds DecodeRun, the in-place decoder of mpexec's frame and
// journal record lists, to the stream reader on arbitrary bytes, and again
// with the input's block checksums recomputed (withBlockCRCs) so mutations
// reach the record parser: the same records and the same outcome, never a
// panic, and the input left byte for byte as it was. The records of a clean
// None run are views into the input.
func FuzzDecodeRun(f *testing.F) {
	valid := AppendRun(nil, []core.Record{{Key: "a", Value: "1"}, {Key: "", Value: ""}, {Key: "\x00k", Value: strings.Repeat("v", 300)}})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append([]byte("BLC3\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))
	f.Add(binary.AppendUvarint([]byte("BLC3\x00"), 1<<31+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, run := range [][]byte{b, withBlockCRCs(b)} {
			want, wantErr := drainRecords(NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(run), 16)))
			before := slices.Clone(run)
			got, err := DecodeRun(nil, run)
			if !slices.Equal(got, want) {
				t.Fatalf("DecodeRun: %d records, the stream reader %d", len(got), len(want))
			}
			if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("DecodeRun: err %v, the stream reader's %v", err, wantErr)
			}
			if !bytes.Equal(run, before) {
				t.Fatal("DecodeRun wrote into its input")
			}
			if err != nil || run[4] != byte(None) {
				continue
			}
			for _, r := range got {
				for _, s := range []string{r.Key, r.Value} {
					if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && (p < uintptr(unsafe.Pointer(&run[0])) ||
						p+uintptr(len(s)) > uintptr(unsafe.Pointer(&run[0]))+uintptr(len(run))) {
						t.Fatal("DecodeRun of a None run returned a string outside its input")
					}
				}
			}
		}
	})
}

// TestAppendRunAllocatesOnce: sealing a record list grows the buffer once,
// and the run stays within raw bytes plus framing.
func TestAppendRunAllocatesOnce(t *testing.T) {
	recs := make([]core.Record, 5000)
	for i := range recs {
		recs[i] = core.Record{Key: core.EncodeUint64(uint64(i)), Value: strings.Repeat("v", i%300)}
	}
	var out []byte
	if allocs := testing.AllocsPerRun(20, func() { out = AppendRun(nil, recs) }); allocs != 1 {
		t.Fatalf("AppendRun(nil, %d records) made %.0f allocations, want 1", len(recs), allocs)
	}
	if bound := maxSealedBytes(t, recs, None, out); int64(len(out)) > bound {
		t.Fatalf("%d records sealed to %d bytes, bound %d", len(recs), len(out), bound)
	}
	requireNoneFraming(t, out, standardFraming(recs))
	got, err := DecodeRun(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	requireRecords(t, "AppendRun", recs, got)
}

// TestInPlaceDecodeLeavesRunIntact: a run that mixes stored and LZ blocks,
// decoded in place twice from one buffer, decodes to the same records both
// times and leaves the buffer byte-identical. A reader that let a stored
// block it views become its scratch would decompress the next LZ block into
// the caller's buffer.
func TestInPlaceDecodeLeavesRunIntact(t *testing.T) {
	recs := append(randomThenText(), randomThenText()[:800]...)
	for _, comp := range []Compression{Block, DeltaBlock} {
		run := sealRun(t, recs, comp)
		tags, _ := blockFrames(t, run)
		var stored, lz int
		for _, tag := range tags {
			if tag&1 == 0 {
				stored++
			} else {
				lz++
			}
		}
		if stored == 0 || lz == 0 {
			t.Fatalf("%v: %d stored and %d LZ blocks, want both", comp, stored, lz)
		}
		before := slices.Clone(run)
		for pass := range 2 {
			got, err := DecodeRun(nil, run)
			if err != nil {
				t.Fatalf("%v pass %d: %v", comp, pass, err)
			}
			requireRecords(t, comp.String(), recs, got)
			if !bytes.Equal(run, before) {
				t.Fatalf("%v pass %d: decoding in place changed the run", comp, pass)
			}
		}
	}
}
