package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"blmr/internal/core"
)

var allCompressions = []Compression{None, Block, DeltaBlock}

// encodeRun seals recs with comp at the given block target (0 = default),
// returning the encoded run and the encoder's reported raw size.
func encodeRun(t *testing.T, recs []core.Record, comp Compression, blockTarget int) ([]byte, int64) {
	t.Helper()
	e := NewRunEncoder(nil, comp)
	if blockTarget > 0 {
		e.blockTarget = blockTarget
	}
	for _, r := range recs {
		if err := e.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return append([]byte(nil), e.Bytes()...), e.RawBytes()
}

// standardFraming is recs' standard encoding back to back: what a None
// run's stored blocks hold, and what RawBytes counts.
func standardFraming(recs []core.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendRecord(b, r)
	}
	return b
}

// decodeRun drains a decoder, failing the test on any decode error.
func decodeRun(t *testing.T, buf []byte, comp Compression) []core.Record {
	t.Helper()
	rd := NewRunDecoderBytes(buf, comp)
	var out []core.Record
	for {
		r, ok := rd.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func requireRecords(t *testing.T, name string, want, got []core.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// randomRecords builds n records with random sizes including zero-byte keys
// and values, key-sorted (the order DeltaBlock compresses best).
func randomRecords(rng *rand.Rand, n int) []core.Record {
	const alphabet = "abcdefgh"
	recs := make([]core.Record, n)
	for i := range recs {
		klen := rng.Intn(24)
		if rng.Intn(10) == 0 {
			klen = 0
		}
		vlen := rng.Intn(40)
		if rng.Intn(10) == 0 {
			vlen = 0
		}
		k := make([]byte, klen)
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		v := make([]byte, vlen)
		rng.Read(v)
		recs[i] = core.Record{Key: string(k), Value: string(v)}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

func TestCompressedRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		sorted := randomRecords(rng, 1+rng.Intn(400))
		// Every codec takes any key order: pipelined waves are sealed
		// unsorted, and front-coding against the previous key stays lossless.
		unsorted := slices.Clone(sorted)
		rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
		for order, recs := range map[string][]core.Record{"sorted": sorted, "unsorted": unsorted} {
			raw := standardFraming(recs)
			for _, comp := range allCompressions {
				buf, rawBytes := encodeRun(t, recs, comp, 0)
				if rawBytes != int64(len(raw)) {
					t.Fatalf("%v: RawBytes=%d, standard encoding is %d", comp, rawBytes, len(raw))
				}
				if comp == None {
					requireNoneFraming(t, buf, raw)
				}
				requireRecords(t, fmt.Sprintf("trial%d-%s-%v", trial, order, comp), recs, decodeRun(t, buf, comp))
			}
		}
	}
}

// requireNoneFraming fails unless a None run is the records' standard
// encoding, raw, cut into stored blocks: the run header, then each block's
// payload a stretch of raw in order, framed by at most 10 bytes.
func requireNoneFraming(t *testing.T, run, raw []byte) {
	t.Helper()
	var hdr [runHeaderBytes]byte
	if kind, err := readRunHeader(bytes.NewReader(run), &hdr); err != nil || kind != None {
		t.Fatalf("None run header %q: %v, %v", hdr, kind, err)
	}
	var payloads []byte
	for off := runHeaderBytes; off < len(run); {
		rawLen, n1 := uvarintAt(t, run, off)
		tag, n2 := uvarintAt(t, run, off+n1)
		if tag&3 != 0 || tag>>2 != rawLen || n1+n2+4 > 10 {
			t.Fatalf("None block at %d: raw %d, tag %#x, %d header bytes", off, rawLen, tag, n1+n2+4)
		}
		off += n1 + n2 + 4
		payloads = append(payloads, run[off:off+int(rawLen)]...)
		off += int(rawLen)
	}
	if !bytes.Equal(payloads, raw) {
		t.Fatalf("None blocks hold %d bytes that are not the records' standard encoding (%d bytes)", len(payloads), len(raw))
	}
}

// TestCompressedRoundTripBlockBoundaries forces records to land on every
// block-boundary shape: tiny targets seal a block per record (and mid-run
// boundaries at every position), larger ones exercise partial tail blocks
// and records bigger than a whole block.
func TestCompressedRoundTripBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomRecords(rng, 200)
	recs = append(recs, core.Record{Key: strings.Repeat("k", 500), Value: strings.Repeat("v", 700)},
		core.Record{Key: strings.Repeat("m", 128), Value: strings.Repeat("w", 256)}) // varints starting 0x80
	for _, comp := range allCompressions {
		for _, target := range []int{1, 2, 3, 7, 16, 64, 257, 1 << 20} {
			buf, _ := encodeRun(t, recs, comp, target)
			requireRecords(t, fmt.Sprintf("%v-target%d", comp, target), recs, decodeRun(t, buf, comp))
		}
	}
}

// TestCompressedEmptyRun: a flushed empty run of any codec is just the
// self-describing header and decodes to zero records.
func TestCompressedEmptyRun(t *testing.T) {
	for _, comp := range allCompressions {
		buf, _ := encodeRun(t, nil, comp, 0)
		if len(buf) != 5 {
			t.Fatalf("%v: empty run is %d bytes, want 5 (header)", comp, len(buf))
		}
		if got := decodeRun(t, buf, comp); len(got) != 0 {
			t.Fatalf("%v: empty run decoded %d records", comp, len(got))
		}
	}
}

// TestCompressedStreamingMatchesBuffered: the writer-backed encoder must
// produce byte-identical output to the in-memory encoder, through arbitrary
// incremental writes.
func TestCompressedStreamingMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randomRecords(rng, 3000)
	for _, comp := range allCompressions {
		want, _ := encodeRun(t, recs, comp, 0)
		var sink bytes.Buffer
		e := NewRunEncoder(&sink, comp)
		for _, r := range recs {
			if err := e.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("%v: streamed encoding diverges from buffered", comp)
		}
	}
}

// blockBoundaries returns every offset at which a compressed run may
// legitimately end (after the header and after each whole block), by
// re-walking the framing.
func blockBoundaries(t *testing.T, buf []byte) map[int]bool {
	t.Helper()
	bounds := map[int]bool{}
	off := 5 // header
	bounds[off] = true
	for off < len(buf) {
		rawLen, n := uvarintAt(t, buf, off)
		off += n
		encTag, n := uvarintAt(t, buf, off)
		off += n
		_ = rawLen
		off += 4 // crc32c
		off += int(encTag >> 2)
		bounds[off] = true
	}
	return bounds
}

func uvarintAt(t *testing.T, buf []byte, off int) (uint64, int) {
	t.Helper()
	var v uint64
	var shift uint
	for i := off; i < len(buf); i++ {
		b := buf[i]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i - off + 1
		}
		shift += 7
	}
	t.Fatalf("bad varint at %d", off)
	return 0, 0
}

// TestCompressedTruncationEveryOffset cuts a run of every codec at every
// byte offset: decoding must never panic, and must surface ErrCorrupt for
// every cut that is not a clean block boundary. Cuts at block boundaries
// decode (without error) to a strict prefix of the records — undetectable
// inside the run, which the transports catch with section-length
// accounting.
func TestCompressedTruncationEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randomRecords(rng, 120)
	for _, comp := range allCompressions {
		buf, _ := encodeRun(t, recs, comp, 64)
		bounds := blockBoundaries(t, buf)
		for cut := 0; cut < len(buf); cut++ {
			rd := NewRunDecoderBytes(buf[:cut], comp)
			var got []core.Record
			for {
				r, ok := rd.Next()
				if !ok {
					break
				}
				got = append(got, r)
			}
			err := rd.Err()
			if bounds[cut] {
				if err != nil {
					t.Fatalf("%v: cut at block boundary %d errored: %v", comp, cut, err)
				}
				if len(got) > len(recs) || !slices.Equal(got, recs[:len(got)]) {
					t.Fatalf("%v: cut at %d decoded a non-prefix", comp, cut)
				}
				continue
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v: cut at %d: err=%v, want ErrCorrupt", comp, cut, err)
			}
		}
	}
}

// TestCompressedCorruptHeader: bad magic and bad codec bytes are rejected.
// The retired "BLC1"/"BLC2"
// magics are bad magics like any other: nothing writes them and no sealed
// run outlives its state directory, so the decoder carries no path for them.
func TestCompressedCorruptHeader(t *testing.T) {
	buf, _ := encodeRun(t, []core.Record{{Key: "k", Value: "v"}}, Block, 0)
	for _, mut := range []struct {
		name string
		at   int
		to   byte
		want string
	}{
		{"magic", 0, 'X', "bad run magic"},
		{"BLC1", 3, '1', "bad run magic"},
		{"BLC2", 3, '2', "bad run magic"},
		{"codec", 4, 99, "bad run codec"},
	} {
		bad := append([]byte(nil), buf...)
		bad[mut.at] = mut.to
		rd := NewRunDecoderBytes(bad, Block)
		if _, ok := rd.Next(); ok {
			t.Fatalf("%s: decoded a record from a corrupt header", mut.name)
		}
		if err := rd.Err(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), mut.want) {
			t.Fatalf("%s: err=%v, want ErrCorrupt %q", mut.name, err, mut.want)
		}
	}
}

// TestDeltaBlockCompresses: sorted text keys (the WordCount spill shape)
// must shrink substantially under DeltaBlock — the ratio the spill and
// fetch paths bank on.
func TestDeltaBlockCompresses(t *testing.T) {
	recs := repeatedWordKeys()
	raw := int64(len(standardFraming(recs)))
	for _, comp := range []Compression{Block, DeltaBlock} {
		buf, rawBytes := encodeRun(t, recs, comp, 0)
		if rawBytes != raw {
			t.Fatalf("%v: raw accounting %d != %d", comp, rawBytes, raw)
		}
		ratio := float64(raw) / float64(len(buf))
		if ratio < 1.5 {
			t.Fatalf("%v: ratio %.2f < 1.5 (raw=%d sealed=%d)", comp, ratio, raw, len(buf))
		}
		t.Logf("%v: %d -> %d bytes (%.1fx)", comp, raw, len(buf), ratio)
	}
}

// repeatedWordKeys is TestDeltaBlockCompresses' input: 4 000 sorted text
// keys, each repeated three times.
func repeatedWordKeys() []core.Record {
	var recs []core.Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, core.Record{Key: fmt.Sprintf("word%08d", i/3), Value: "1"})
	}
	return recs
}

// TestSealedBytesPinned: runs whose LZ pays seal to the same bytes they
// sealed to before the LZ probe existed. Each run is pinned by its length
// and CRC-32C, taken from the encoder that tried LZ on every block.
func TestSealedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []core.Record
		comp Compression
		size int
		crc  uint32
	}{
		{"wordcount-keys", wordCountKeys(8_000), Block, 17746, 0xd5d55fa3},
		{"wordcount-keys", wordCountKeys(8_000), DeltaBlock, 8381, 0x84c6fe5c},
		{"text-lines", textLines(8_000), Block, 256097, 0x02ea35cb},
		{"text-lines", textLines(8_000), DeltaBlock, 237264, 0x8eb6c4b0},
		{"repeated-word-keys", repeatedWordKeys(), Block, 10002, 0xaea21004},
		{"repeated-word-keys", repeatedWordKeys(), DeltaBlock, 206, 0x3d809752},
	} {
		buf, _ := encodeRun(t, tc.recs, tc.comp, 0)
		if crc := crc32.Checksum(buf, crcTable); len(buf) != tc.size || crc != tc.crc {
			t.Errorf("%s/%v: sealed %d bytes, CRC %08x; pinned %d bytes, CRC %08x",
				tc.name, tc.comp, len(buf), crc, tc.size, tc.crc)
		}
	}
}

// blockFrames walks a compressed run's framing and returns each block's
// tag (encLen<<2 | dict<<1 | lz) and the bytes the run spends on block
// headers: two length varints and a checksum per block.
func blockFrames(t *testing.T, buf []byte) (tags []uint64, headers int) {
	t.Helper()
	for off := 5; off < len(buf); {
		_, n1 := uvarintAt(t, buf, off)
		tag, n2 := uvarintAt(t, buf, off+n1)
		tags = append(tags, tag)
		headers += n1 + n2 + 4
		off += n1 + n2 + 4 + int(tag>>2)
	}
	return tags, headers
}

// randomThenText is a run whose LZ probe guesses wrong: its first block is
// random 40-byte keys, the rest text lines that LZ shrinks by half.
func randomThenText() []core.Record {
	rng := rand.New(rand.NewSource(29))
	var recs []core.Record
	for range 800 {
		k := make([]byte, 40)
		rng.Read(k)
		recs = append(recs, core.Record{Key: string(k)})
	}
	return append(recs, textLines(8_000)...)
}

// TestLZProbe: a block whose LZ saves less than 1/probeMinSaving of it
// stores the next probeEvery-1 blocks verbatim; the block after them probes
// again, and a run that became compressible gets LZ back. Runs whose LZ
// pays compress every block.
func TestLZProbe(t *testing.T) {
	for _, tc := range []struct {
		name   string
		recs   []core.Record
		wantLZ func(block int) bool
	}{
		{"uniform-keys", sortedUniformKeys(200_000), func(i int) bool { return i%probeEvery == 0 }},
		{"wordcount-keys", wordCountKeys(24_000), func(int) bool { return true }},
		{"random-then-text", randomThenText(), func(i int) bool { return i >= probeEvery }},
	} {
		buf, _ := encodeRun(t, tc.recs, DeltaBlock, 0)
		tags, _ := blockFrames(t, buf)
		if len(tags) <= probeEvery {
			t.Fatalf("%s: %d blocks, want more than %d", tc.name, len(tags), probeEvery)
		}
		for i, tag := range tags {
			if lz := tag&1 == 1; lz != tc.wantLZ(i) {
				t.Fatalf("%s: block %d of %d has lz=%v, want %v", tc.name, i, len(tags), lz, !lz)
			}
		}
		requireRecords(t, tc.name, tc.recs, decodeRun(t, buf, DeltaBlock))
	}
}

// maxSealedBytes bounds a run that stores every block it cannot shrink:
// its raw bytes plus framing. Front coding costs DeltaBlock one extra byte
// per record whose key shares no prefix with the record before it in its
// block (a block's first record included); every other record it shrinks
// or leaves as long.
func maxSealedBytes(t *testing.T, recs []core.Record, comp Compression, buf []byte) int64 {
	t.Helper()
	tags, headers := blockFrames(t, buf)
	bound := int64(len(standardFraming(recs)) + 5 + headers)
	if comp != DeltaBlock {
		return bound
	}
	for i, r := range recs {
		if i == 0 || r.Key == "" || recs[i-1].Key == "" || recs[i-1].Key[0] != r.Key[0] {
			bound++
		}
	}
	return bound + int64(len(tags))
}

// TestIncompressibleStoredBlocks: random payloads take the stored-block
// path and still round-trip, and the run is never larger than its raw
// bytes plus framing (maxSealedBytes).
func TestIncompressibleStoredBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := make([]core.Record, 50)
	for i := range recs {
		k := make([]byte, 32)
		v := make([]byte, 200)
		rng.Read(k)
		rng.Read(v)
		recs[i] = core.Record{Key: string(k), Value: string(v)}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	for _, comp := range allCompressions {
		buf, rawBytes := encodeRun(t, recs, comp, 0)
		requireRecords(t, comp.String(), recs, decodeRun(t, buf, comp))
		if bound := maxSealedBytes(t, recs, comp, buf); int64(len(buf)) > bound {
			t.Fatalf("%v: incompressible run sealed %d -> %d bytes, bound %d", comp, rawBytes, len(buf), bound)
		}
	}
}

// TestCorruptCopyDistance: a copy op whose distance uvarint exceeds int64
// must surface ErrCorrupt, not wrap negative and panic on a slice index.
func TestCorruptCopyDistance(t *testing.T) {
	var buf []byte
	buf = append(buf, runMagic[:]...)
	buf = append(buf, byte(Block))
	payload := binary.AppendUvarint(nil, 4<<1|1)               // copy, len 4
	payload = binary.AppendUvarint(payload, uint64(1)<<63)     // distance 2^63
	buf = binary.AppendUvarint(buf, 100)                       // rawLen
	buf = binary.AppendUvarint(buf, uint64(len(payload))<<2|1) // lz-compressed
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	rd := NewRunDecoderBytes(buf, Block)
	if _, ok := rd.Next(); ok {
		t.Fatal("decoded a record from a corrupt copy distance")
	}
	if !errors.Is(rd.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", rd.Err())
	}
}

func TestParseCompression(t *testing.T) {
	for _, comp := range allCompressions {
		got, err := ParseCompression(comp.String())
		if err != nil || got != comp {
			t.Fatalf("ParseCompression(%q) = %v, %v", comp.String(), got, err)
		}
	}
	if _, err := ParseCompression("zstd"); err == nil {
		t.Fatal("expected an error for an unknown codec")
	}
}

// TestArenaDecodeAllocatesPerChunk guards the decode path's allocation
// budget: with an arena, draining a run of any codec allocates once per
// 72KiB arena chunk, not once per record (front-coded keys used to cost a
// discarded heap string each on top of the arena copy). The budget also
// allows one allocation per 32KiB block: the race build does not fuse
// readPayload's append(dst, make(...)...) and pays it there.
func TestArenaDecodeAllocatesPerChunk(t *testing.T) {
	const n = 20000
	recs := make([]core.Record, n)
	var strBytes int
	for i := range recs {
		recs[i] = core.Record{Key: core.EncodeUint64(uint64(i) * 7919), Value: "payload!"}
		strBytes += len(recs[i].Key) + len(recs[i].Value)
	}
	budget := float64(strBytes/arenaChunkBytes+1) + float64(strBytes/blockTargetBytes+1) + 2
	for _, comp := range allCompressions {
		buf, _ := encodeRun(t, recs, comp, 0)
		var dec SectionDecoder
		var arena Arena
		rd := bytes.NewReader(buf)
		drain := func() {
			rd.Reset(buf)
			r := dec.Reset(rd, &arena)
			got := 0
			for _, ok := r.Next(); ok; _, ok = r.Next() {
				got++
			}
			if got != n || r.Err() != nil {
				t.Fatalf("%v: decoded %d of %d records, err %v", comp, got, n, r.Err())
			}
		}
		drain() // size the decoder's block and payload buffers
		if allocs := testing.AllocsPerRun(5, drain); allocs > budget {
			t.Errorf("%v: %.0f allocations decoding %d records into an arena, want at most %.0f (one per chunk and block)",
				comp, allocs, n, budget)
		}
	}

	// service_stream's shape: many small None sections through one decoder
	// and one arena. Each section's block lands in the arena's current
	// chunk, so allocations track the bytes decoded, not the section count.
	const sections = 1000
	sec, secStrBytes := smallSection()
	var dec SectionDecoder
	var arena Arena
	rd := bytes.NewReader(sec)
	drainSections := func() {
		for range sections {
			rd.Reset(sec)
			r := dec.Reset(rd, &arena)
			for _, ok := r.Next(); ok; _, ok = r.Next() {
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
		}
	}
	drainSections()
	budget = float64(sections*secStrBytes/arenaChunkBytes) + 4
	if allocs := testing.AllocsPerRun(5, drainSections); allocs > budget {
		t.Errorf("%.0f allocations decoding %d sections of %d bytes into one arena, want at most %.0f (one per chunk)",
			allocs, sections, len(sec), budget)
	}
}

// smallSection is one fetched section of service_stream's shape: about 20
// short records sealed with None. It returns the section and its string
// bytes.
func smallSection() (sec []byte, strBytes int) {
	e := NewRunEncoder(nil, None)
	for i := range 20 {
		r := core.Record{Key: fmt.Sprintf("word-%04d", i*37), Value: fmt.Sprint(i + 1)}
		_ = e.Append(r)
		strBytes += len(r.Key) + len(r.Value)
	}
	_ = e.Flush()
	return e.Bytes(), strBytes
}

// BenchmarkSectionDecodeSmall decodes many small sections through the
// pooled fetch path's shape: one SectionDecoder and one Arena, Reset per
// section.
func BenchmarkSectionDecodeSmall(b *testing.B) {
	sec, _ := smallSection()
	var dec SectionDecoder
	var arena Arena
	rd := bytes.NewReader(sec)
	b.SetBytes(int64(len(sec)))
	b.ReportAllocs()
	for range b.N {
		rd.Reset(sec)
		r := dec.Reset(rd, &arena)
		for _, ok := r.Next(); ok; _, ok = r.Next() {
		}
	}
}
