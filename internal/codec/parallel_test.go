package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"
	"time"

	"blmr/internal/core"
)

// drainParallel decodes buf through a ParallelReader on a fresh pool.
func drainParallel(t *testing.T, buf []byte, workers int, arena *Arena) ([]core.Record, error) {
	t.Helper()
	pool := NewDecodePool(workers)
	defer pool.Close()
	return drainRecords(NewParallelReader(pool, bytes.NewReader(buf), arena))
}

// TestParallelDecodeMatchesSerial: the pipeline must yield the exact
// record sequence of the serial blockReader at every worker count, across
// codecs, arenas, and run shapes (the determinism contract the shuffle
// merger depends on).
func TestParallelDecodeMatchesSerial(t *testing.T) {
	recs := crcTestRecords(8000) // several blocks, dict-dependent chains
	for _, comp := range allCompressions {
		sealed := sealRun(t, recs, comp)
		small := sealRun(t, crcTestRecords(500), comp) // one block, no dictionary
		runs := [][]byte{sealed, small}
		for ri, buf := range runs {
			want := decodeAll(t, buf, comp)
			for _, workers := range []int{1, 4, 16} {
				for _, useArena := range []bool{false, true} {
					var arena *Arena
					if useArena {
						arena = &Arena{}
					}
					got, err := drainParallel(t, buf, workers, arena)
					if err != nil {
						t.Fatalf("%v run %d workers %d: %v", comp, ri, workers, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%v run %d workers %d: %d records, want %d", comp, ri, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v run %d workers %d record %d: %v vs %v", comp, ri, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelDecodeCorruptBlock: a bit flip mid-run must surface
// ErrCorrupt from the pipeline without hanging and without leaking the
// reader goroutine or the workers.
func TestParallelDecodeCorruptBlock(t *testing.T) {
	recs := crcTestRecords(8000)
	buf := sealRun(t, recs, Block)
	before := runtime.NumGoroutine()
	for _, off := range []int{16, len(buf) / 2, len(buf) - 3} {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x20
		_, err := drainParallel(t, mut, 4, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	// Truncations mid-block must also error, not hang the reader stage.
	for _, cut := range []int{7, len(buf) / 3, len(buf) - 1} {
		_, err := drainParallel(t, buf[:cut], 4, nil)
		if err == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
	}
	// All pools above were closed; give exited goroutines a beat to die.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestParallelReaderStopMidSection: abandoning a half-consumed run must
// quiesce the pipeline (Stop returns only when the reader goroutine has
// exited) and stay idempotent.
func TestParallelReaderStopMidSection(t *testing.T) {
	buf := sealRun(t, crcTestRecords(8000), DeltaBlock)
	pool := NewDecodePool(4)
	defer pool.Close()
	for i := 0; i < 50; i++ {
		pr := NewParallelReader(pool, bytes.NewReader(buf), nil)
		for j := 0; j < i*7; j++ {
			if _, ok := pr.Next(); !ok {
				break
			}
		}
		pr.Stop()
		pr.Stop() // idempotent
	}
}

// TestParallelDecodeAfterPoolClose: sections opened against a closed pool
// fall back to inline decode and still finish correctly.
func TestParallelDecodeAfterPoolClose(t *testing.T) {
	recs := crcTestRecords(8000)
	buf := sealRun(t, recs, Block)
	pool := NewDecodePool(4)
	pool.Close()
	pr := NewParallelReader(pool, bytes.NewReader(buf), nil)
	n := 0
	for {
		if _, ok := pr.Next(); !ok {
			break
		}
		n++
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("decoded %d records, want %d", n, len(recs))
	}
}

// FuzzRunDecoder feeds arbitrary bytes to the three run decoders — the
// serial NewRunDecoderBytes, a ParallelReader on a 2-worker DecodePool, and
// a SectionDecoder reset with an Arena (which reads None's stored blocks
// straight into the arena) — and holds them to one outcome: the same
// records, and either a clean end from all three or ErrCorrupt from all
// three. Each input is decoded a second time with its block checksums
// recomputed (withBlockCRCs), so mutations reach the LZ, front-coding and
// record parsers behind the CRC check. The committed corpus in
// testdata/fuzz/FuzzRunDecoder holds a valid None run of several blocks, a
// valid Block run, a DeltaBlock run whose second block copies from the
// first one's tail (the dict bit), and that run cut inside its second
// block.
func FuzzRunDecoder(f *testing.F) {
	pool := NewDecodePool(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, run := range [][]byte{b, withBlockCRCs(b)} {
			want, wantErr := drainRecords(NewRunDecoderBytes(run, DeltaBlock))
			if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
				t.Fatalf("serial: err %v, want ErrCorrupt", wantErr)
			}
			var dec SectionDecoder
			for name, rd := range map[string]RecordReader{
				"parallel": NewParallelReader(pool, bytes.NewReader(run), nil),
				"section":  dec.Reset(bytes.NewReader(run), &Arena{}),
			} {
				got, err := drainRecords(rd)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: decoded %d records, serial %d", name, len(got), len(want))
				}
				if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
					t.Fatalf("%s: err %v, serial err %v", name, err, wantErr)
				}
			}
		}
	})
}

// fuzzBlockTarget is FuzzRunEncoder's block target: small, so one input
// spans many blocks and the LZ probe's store-and-reprobe cycle runs.
const fuzzBlockTarget = 64

// FuzzRunEncoder seals the records fuzzRecords builds from each input with
// every codec, and holds the serial, parallel and section decoders to
// returning exactly those records, and the run to maxSealedBytes. The committed corpus in testdata/fuzz/FuzzRunEncoder
// holds sorted uniform 8-byte keys (the probe stores the blocks after the
// first), sorted WordCount keys (every block keeps LZ) and a run whose
// first block is random keys and whose later blocks repeat one record
// shape (the probe guesses wrong, then LZ comes back at the next probe).
func FuzzRunEncoder(f *testing.F) {
	pool := NewDecodePool(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, b []byte) {
		recs := fuzzRecords(b)
		for _, comp := range allCompressions {
			buf, _ := encodeRun(t, recs, comp, fuzzBlockTarget)
			if bound := maxSealedBytes(t, recs, comp, buf); int64(len(buf)) > bound {
				t.Fatalf("%v: %d records sealed to %d bytes, bound %d", comp, len(recs), len(buf), bound)
			}
			var dec SectionDecoder
			for name, rd := range map[string]RecordReader{
				"serial":   NewRunDecoderBytes(buf, comp),
				"parallel": NewParallelReader(pool, bytes.NewReader(buf), nil),
				"section":  dec.Reset(bytes.NewReader(buf), &Arena{}),
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
