package codec

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blmr/internal/core"
)

func crcTestRecords(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			Key:   fmt.Sprintf("key-%05d", i),
			Value: strings.Repeat("v", i%17),
		}
	}
	return recs
}

func sealRun(t *testing.T, recs []core.Record, comp Compression) []byte {
	t.Helper()
	e := NewRunEncoder(nil, comp)
	for _, r := range recs {
		if err := e.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestBlockCRCCatchesBitRot: flipping any single payload byte of a sealed
// run must surface ErrCorrupt naming the checksum — the corruption is
// caught at the block that broke, before decompression can smear it into a
// confusing parse error (or, for a stored block, silently altered data: a
// flipped value byte of a None run decoded cleanly before None runs had
// checksums). Each flip is decoded with and without an arena, since a None
// block read into the arena is checked there.
func TestBlockCRCCatchesBitRot(t *testing.T) {
	for _, comp := range allCompressions {
		buf := sealRun(t, crcTestRecords(2000), comp)
		// Flip bytes across the run body (past the 5-byte header, skipping
		// the per-block length varints is unnecessary: a corrupt length is
		// ErrCorrupt too — but for the checksum-specific assertion pick
		// offsets inside the first block's payload).
		for _, off := range []int{16, 64, len(buf) / 2, len(buf) - 3} {
			mut := append([]byte(nil), buf...)
			mut[off] ^= 0x20
			for _, arena := range []*Arena{nil, new(Arena)} {
				var dec SectionDecoder
				if _, err := drainRecords(dec.Reset(bytes.NewReader(mut), arena)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v: flipped byte %d decoded cleanly (arena %v, err=%v)", comp, off, arena != nil, err)
				}
			}
		}
		// Specifically: a flip in the middle of a stored/compressed payload
		// is named a checksum mismatch.
		mut := append([]byte(nil), buf...)
		mut[20] ^= 0x01
		rd := NewRunDecoderBytes(mut, comp)
		for {
			if _, ok := rd.Next(); !ok {
				break
			}
		}
		if err := rd.Err(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%v: payload flip error = %v", comp, err)
		}
	}
}

func decodeAll(t *testing.T, buf []byte, comp Compression) []core.Record {
	t.Helper()
	dec := NewRunDecoderBytes(buf, comp)
	var got []core.Record
	for {
		r, ok := dec.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("%v: decode: %v", comp, err)
	}
	return got
}

// TestDictWindowRoundTrip: a multi-block repetitive run must produce at
// least one dictionary-dependent block (the cross-block window is doing
// work) and still round-trip exactly; and corruption inside the block a
// dict block depends on surfaces ErrCorrupt for both.
func TestDictWindowRoundTrip(t *testing.T) {
	recs := crcTestRecords(8000) // several blocks of highly repetitive keys
	for _, comp := range []Compression{Block, DeltaBlock} {
		buf := sealRun(t, recs, comp)
		var dictBlocks, blocks int
		src := buf[5:]
		for len(src) > 0 {
			_, n1 := uvarint(t, src)
			encTag, n2 := uvarint(t, src[n1:])
			src = src[n1+n2+4+int(encTag>>2):]
			blocks++
			if encTag&2 != 0 {
				dictBlocks++
			}
		}
		if blocks < 2 {
			t.Fatalf("%v: test data sealed into %d block(s); need several", comp, blocks)
		}
		if dictBlocks == 0 {
			t.Fatalf("%v: no dictionary-dependent blocks in %d blocks", comp, blocks)
		}
		t.Logf("%v: %d of %d blocks dict-dependent, %d bytes sealed", comp, dictBlocks, blocks, len(buf))
		got := decodeAll(t, buf, comp)
		if len(got) != len(recs) {
			t.Fatalf("%v: decoded %d records, want %d", comp, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("%v: record %d: %v vs %v", comp, i, got[i], recs[i])
			}
		}
	}
}

// TestDictBlockWithoutPredecessor: a first block claiming dictionary
// dependence is structurally impossible and must be ErrCorrupt, not a
// panic or garbage output.
func TestDictBlockWithoutPredecessor(t *testing.T) {
	recs := crcTestRecords(8000)
	buf := sealRun(t, recs, Block)
	// Splice the run down to header + the first dict-flagged block.
	src := buf[5:]
	off := 5
	for len(src) > 0 {
		_, n1 := uvarint(t, src)
		encTag, n2 := uvarint(t, src[n1:])
		blockLen := n1 + n2 + 4 + int(encTag>>2)
		if encTag&2 != 0 {
			bad := append([]byte(nil), buf[:5]...)
			bad = append(bad, buf[off:off+blockLen]...)
			rd := NewRunDecoderBytes(bad, Block)
			for {
				if _, ok := rd.Next(); !ok {
					break
				}
			}
			if err := rd.Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("orphaned dict block: err=%v, want ErrCorrupt", err)
			}
			return
		}
		src = src[blockLen:]
		off += blockLen
	}
	t.Fatal("test data produced no dict blocks")
}

func uvarint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	var v uint64
	var shift uint
	for i, c := range b {
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	t.Fatal("bad varint")
	return 0, 0
}

// TestSectionDecoderArena: decoding through a SectionDecoder with an arena
// yields records equal to the plain decode, across codecs and across
// Resets (the shuffle pool's per-connection reuse pattern).
func TestSectionDecoderArena(t *testing.T) {
	recs := crcTestRecords(1200)
	var dec SectionDecoder
	var arena Arena
	for _, comp := range []Compression{None, Block, DeltaBlock} {
		buf := sealRun(t, recs, comp)
		for pass := 0; pass < 2; pass++ { // reuse across Resets
			rr := dec.Reset(bytes.NewReader(buf), &arena)
			var got []core.Record
			for {
				r, ok := rr.Next()
				if !ok {
					break
				}
				got = append(got, r)
			}
			if err := rr.Err(); err != nil {
				t.Fatalf("%v pass %d: %v", comp, pass, err)
			}
			if len(got) != len(recs) {
				t.Fatalf("%v pass %d: %d records, want %d", comp, pass, len(got), len(recs))
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("%v pass %d record %d: %v vs %v", comp, pass, i, got[i], recs[i])
				}
			}
		}
	}
}
