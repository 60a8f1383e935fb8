package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"blmr/internal/core"
)

// FuzzRunDecoder feeds arbitrary bytes to the block reader's three ways in —
// in place from a buffer (NewRunDecoderBytes), off a stream, and off a
// stream through a SectionDecoder reset with an Arena (which reads None's
// stored blocks straight into the arena) — and holds them to one outcome:
// the same records, and either a clean end from all or ErrCorrupt from all.
// Each input is decoded a second time with its block checksums recomputed
// (withBlockCRCs), so mutations reach the LZ, front-coding and record
// parsers behind the CRC check. The committed corpus in
// testdata/fuzz/FuzzRunDecoder holds a valid None run of several blocks, a
// valid Block run, a DeltaBlock run whose second block copies from the
// first one's tail (the dict bit), and that run cut inside its second block.
func FuzzRunDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, run := range [][]byte{b, withBlockCRCs(b)} {
			want, wantErr := drainRecords(NewRunDecoderBytes(run, DeltaBlock))
			if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
				t.Fatalf("in place: err %v, want ErrCorrupt", wantErr)
			}
			var dec SectionDecoder
			for name, rd := range map[string]RecordReader{
				"stream": NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(run), 16)),
				"arena":  dec.Reset(bytes.NewReader(run), &Arena{}),
			} {
				got, err := drainRecords(rd)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: decoded %d records, in place %d", name, len(got), len(want))
				}
				if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
					t.Fatalf("%s: err %v, in place err %v", name, err, wantErr)
				}
			}
		}
	})
}

// fuzzBlockTarget is FuzzRunEncoder's block target: small, so one input
// spans many blocks and the LZ probe's store-and-reprobe cycle runs.
const fuzzBlockTarget = 64

// FuzzRunEncoder seals the records fuzzRecords builds from each input with
// every codec, and holds the block reader to returning exactly those
// records in place, off a stream and through an arena, and the run to
// maxSealedBytes. The committed corpus in testdata/fuzz/FuzzRunEncoder
// holds sorted uniform 8-byte keys (the probe stores the blocks after the
// first), sorted WordCount keys (every block keeps LZ) and a run whose first
// block is random keys and whose later blocks repeat one record shape (the
// probe guesses wrong, then LZ comes back at the next probe).
func FuzzRunEncoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		recs := fuzzRecords(b)
		for _, comp := range allCompressions {
			buf, _ := encodeRun(t, recs, comp, fuzzBlockTarget)
			if bound := maxSealedBytes(t, recs, comp, buf); int64(len(buf)) > bound {
				t.Fatalf("%v: %d records sealed to %d bytes, bound %d", comp, len(recs), len(buf), bound)
			}
			var dec SectionDecoder
			for name, rd := range map[string]RecordReader{
				"in place": NewRunDecoderBytes(buf, comp),
				"stream":   NewRunDecoder(bufio.NewReaderSize(bytes.NewReader(buf), 16)),
				"arena":    dec.Reset(bytes.NewReader(buf), &Arena{}),
			} {
				got, err := drainRecords(rd)
				if err != nil {
					t.Fatalf("%v/%s: %v", comp, name, err)
				}
				requireRecords(t, comp.String()+"/"+name, recs, got)
			}
		}
	})
}

// fuzzRecords cuts records out of a fuzz input. Each record is a shared
// byte s, a suffix length byte n, n suffix bytes, a value length byte v and
// v value bytes: its key is the first s%(len(prev)+1) bytes of the
// previous key followed by the suffix (at most 31 bytes), its value up to
// 255 bytes, so length varints of two bytes occur. A record the input cuts
// short ends the list.
func fuzzRecords(b []byte) []core.Record {
	var recs []core.Record
	prev := ""
	for len(b) >= 2 {
		shared := int(b[0]) % (len(prev) + 1)
		n := int(b[1]) % 32
		b = b[2:]
		if len(b) < n+1 {
			break
		}
		key := prev[:shared] + string(b[:n])
		v := int(b[n])
		b = b[n+1:]
		if len(b) < v {
			break
		}
		recs = append(recs, core.Record{Key: key, Value: string(b[:v])})
		b = b[v:]
		prev = key
	}
	return recs
}

// drainRecords reads rd to its end.
func drainRecords(rd RecordReader) ([]core.Record, error) {
	var got []core.Record
	for r, ok := rd.Next(); ok; r, ok = rd.Next() {
		got = append(got, r)
	}
	return got, rd.Err()
}

// fuzzFixedRawBytes caps the raw bytes withBlockCRCs makes decodable, so a
// fuzzed block header cannot have the decoders build gigabytes of records.
const fuzzFixedRawBytes = 256 << 10

// withBlockCRCs returns a copy of a sealed run with each whole block's
// checksum recomputed over its payload, up to fuzzFixedRawBytes of declared
// raw bytes. It stops at the first frame it cannot parse.
func withBlockCRCs(b []byte) []byte {
	b = slices.Clone(b)
	off, raw := 5, uint64(0)
	for off < len(b) {
		rawLen, n := binary.Uvarint(b[off:])
		if n <= 0 {
			break
		}
		tag, m := binary.Uvarint(b[off+n:])
		if m <= 0 {
			break
		}
		crcAt := off + n + m
		encLen := tag >> 2
		if crcAt+4 > len(b) || encLen > uint64(len(b)-crcAt-4) || rawLen > fuzzFixedRawBytes-raw {
			break
		}
		raw += rawLen
		payload := b[crcAt+4 : crcAt+4+int(encLen)]
		binary.LittleEndian.PutUint32(b[crcAt:], crc32.Checksum(payload, crcTable))
		off = crcAt + 4 + int(encLen)
	}
	return b
}
