package codec

// Sealed runs. Every sealed run, whatever its codec, is a self-describing
// run header followed by blocks of whole records, so section reads
// (dfs.OpenRunAt, the run-server wire path) stream block by block and only
// ever decompress the blocks they touch:
//
//	run    := "BLC3" | kind byte | block*
//	block  := uvarint(rawLen) | uvarint(encLen<<2 | dict<<1 | lz) |
//	          crc32c(4 bytes LE) | encLen bytes
//
// kind is the run's Compression; a reader learns the codec from it and
// from nowhere else. rawLen is the block payload's size before byte
// compression; lz=1 means the payload is LZ-compressed, lz=0 that it is
// stored verbatim. None never tries LZ: every block is stored, so a None
// run is its records' standard framing plus 5 header bytes and at most 10
// bytes per 32 KiB block (two 3-byte varints and the checksum). Block and
// DeltaBlock probe whether LZ pays: the encoder LZ-compresses a run's first
// block, and a block whose LZ saves less than 1/probeMinSaving (1/32) of
// its payload fails the probe, so the next probeEvery-1 (15) blocks are
// stored without building an LZ window, and the block after them probes
// again. A probed block LZ would not shrink is stored too. dict=1 means the
// LZ stream contains at least one copy reaching back into the dictionary
// window — the tail (up to 32KiB) of the previous block's raw payload —
// which the small-run workloads need: a 40KB run used to restart its
// byte-window from scratch every 32KiB block. The bit is only set when a
// copy actually lands in the window, so dict=0 blocks stay independently
// decodable. crc32c is the Castagnoli CRC of the encLen payload bytes as
// they sit on disk/wire, verified before the block is decompressed or
// parsed, so bit rot is caught at the block that broke rather than
// surfacing as a confusing parse error records later (or, for a stored
// block, not at all). Blocks always hold whole records — a record never
// straddles a block boundary. "BLC3" is the only format: sealed runs never
// outlive the state directory they were written under, so the older
// "BLC1"/"BLC2" magics and the headerless record stream None once sealed
// are rejected as corrupt like any other bytes.
//
// The LZ layer is snappy-shaped but dependency-free: a greedy byte-window
// compressor emitting varint literal/copy tags, window reset per run (not
// per block — the dictionary carry above):
//
//	op     := uvarint(n<<1)   | n literal bytes          (literal run)
//	        | uvarint(n<<1|1) | uvarint(distance)        (copy, n >= 4)
//
// A copy distance may exceed the bytes decoded so far in the block by up
// to the dictionary window length (dict blocks only).
//
// Block payloads use the standard record framing. DeltaBlock additionally
// front-codes keys before compression: each record stores the length of the
// prefix it shares with the previous key in the block plus the suffix.
// That is lossless in any key order (pipelined waves are sealed unsorted);
// sorted runs just compress better, because sorted text keys share long
// prefixes with their neighbours. Front-coding state resets at every block
// boundary so blocks stay independently parseable:
//
//	deltaRec := uvarint(shared) | uvarint(len(suffix)) | suffix |
//	            uvarint(len(value)) | value
//
// Decoders never panic on malformed input: every structural violation —
// bad magic, impossible lengths, truncated payloads, copies reaching
// before the window — surfaces as ErrCorrupt.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"blmr/internal/core"
)

// Compression selects the sealed-run codec.
type Compression uint8

// Available codecs.
const (
	// None seals runs as stored blocks: the framing and checksums of the
	// other codecs, never LZ.
	None Compression = iota
	// Block seals runs as LZ-compressed fixed-size blocks.
	Block
	// DeltaBlock is Block with key front-coding inside each block.
	DeltaBlock
)

var compressionNames = [...]string{"none", "block", "delta"}

func (c Compression) String() string {
	if int(c) >= len(compressionNames) {
		return "unknown"
	}
	return compressionNames[c]
}

// ParseCompression converts a flag string (none|block|delta) to a
// Compression.
func ParseCompression(s string) (Compression, error) {
	for i, n := range compressionNames {
		if s == n {
			return Compression(i), nil
		}
	}
	return 0, fmt.Errorf("codec: unknown compression %q (want none|block|delta)", s)
}

// runMagic opens every sealed run (per-block CRCs, cross-block dictionary
// window).
var runMagic = [4]byte{'B', 'L', 'C', '3'}

// crcTable is the Castagnoli polynomial, the same choice snappy and iSCSI
// made (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	// blockTargetBytes is the raw payload size at which a block is sealed.
	// Small enough that partial section reads decompress little beyond what
	// they consume, large enough for the byte-window to find repetition.
	blockTargetBytes = 32 << 10
	// dictWindowBytes caps the cross-block dictionary: the tail of the
	// previous block's raw payload a copy may reach back into. One block
	// target keeps the encoder's combined window at most two blocks.
	dictWindowBytes = blockTargetBytes
	// maxBlockRawBytes rejects implausible block headers before allocating.
	// A single oversized record can legitimately exceed the target (blocks
	// hold whole records), so the cap is far above it.
	maxBlockRawBytes = 1 << 30
	// minMatch is the shortest copy the LZ layer emits.
	minMatch = 4
	// lzTableBits sizes the match hash table.
	lzTableBits = 13
	// dictSeedStride samples the dictionary window into the match table:
	// a repetition only needs one anchor inside it to be found, so seeding
	// every other position halves the per-block seeding cost.
	dictSeedStride = 2
	// probeMinSaving is the LZ probe's bar: a block whose LZ encoding saves
	// less than 1/probeMinSaving of its raw payload fails the probe. The bar
	// sits in a wide gap: after front coding, LZ saves 0.6-1.1 % of a block
	// of uniform 8-byte keys, sorted or not, and every other shape measured
	// saves at least 20 % (Block on the same keys 21-26 %, unsorted
	// WordCount keys under DeltaBlock 41 %, text lines 64 %).
	probeMinSaving = 32
	// probeEvery is the probe period: after a failed probe the encoder
	// stores the next probeEvery-1 blocks without trying LZ, then probes
	// again, so a run that turns compressible gets LZ back. A probe costs
	// what LZ costs one block: on 1 M sorted uniform keys DeltaBlock encodes
	// at about 61 ns/record probing only the first block and 116 probing
	// every block, so probing every 16th adds about 3.4 ns/record. A wrong
	// guess stores at most 15 blocks (480 KiB) that LZ would have shrunk.
	probeEvery = 16
)

// lzCoder is the reusable byte-window compressor state.
type lzCoder struct {
	table [1 << lzTableBits]int32 // position+1 of the last occurrence of a hash
}

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - lzTableBits)
}

// appendLiterals emits one literal run (no-op for an empty run).
func appendLiterals(dst, lit []byte) []byte {
	if len(lit) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(lit))<<1)
	return append(dst, lit...)
}

// compress appends the LZ encoding of comb[start:] to dst. comb is the
// dictionary window (comb[:start], the previous block's tail) followed by
// the block payload; copies may reach back into the window, and usedDict
// reports whether any did — when false the encoding decodes with no
// window at all, and the block is marked independently decodable.
func (z *lzCoder) compress(dst, comb []byte, start int) (out []byte, usedDict bool) {
	for i := range z.table {
		z.table[i] = 0
	}
	// Seed the window (sampled): matches against the previous block's tail
	// only need one anchor per repetition to be found.
	for j := 0; j+minMatch <= start; j += dictSeedStride {
		z.table[hash4(comb[j:])] = int32(j) + 1
	}
	litStart := start
	i := start
	for i+minMatch <= len(comb) {
		h := hash4(comb[i:])
		cand := int(z.table[h]) - 1
		z.table[h] = int32(i) + 1
		if cand < 0 || comb[cand] != comb[i] || comb[cand+1] != comb[i+1] ||
			comb[cand+2] != comb[i+2] || comb[cand+3] != comb[i+3] {
			i++
			continue
		}
		length := minMatch
		for i+length < len(comb) && comb[cand+length] == comb[i+length] {
			length++
		}
		if cand < start {
			usedDict = true
		}
		dst = appendLiterals(dst, comb[litStart:i])
		dst = binary.AppendUvarint(dst, uint64(length)<<1|1)
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		// Seed the table inside the match so adjacent repetitions still
		// find each other, without paying a full per-byte insertion.
		for j := i + 1; j < i+length && j+minMatch <= len(comb); j += 7 {
			z.table[hash4(comb[j:])] = int32(j) + 1
		}
		i += length
		litStart = i
	}
	return appendLiterals(dst, comb[litStart:]), usedDict
}

// lzDecompress appends the decompression of src to dst; copies may reach
// back into hist (the dictionary window — nil for independent blocks). The
// result must be exactly rawLen bytes or the block is corrupt.
func lzDecompress(dst, src, hist []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	for off := 0; off < len(src); {
		tag, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad LZ tag", ErrCorrupt)
		}
		off += n
		ln := int(tag >> 1)
		if tag&1 == 0 {
			if ln <= 0 || off+ln > len(src) || len(dst)-base+ln > rawLen {
				return dst, fmt.Errorf("%w: bad literal run", ErrCorrupt)
			}
			dst = append(dst, src[off:off+ln]...)
			off += ln
			continue
		}
		d, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad copy distance", ErrCorrupt)
		}
		off += n
		produced := len(dst) - base
		// Compare the distance as uint64: converting first would let a
		// huge corrupt value wrap negative and slip past the bound.
		if ln < minMatch || d == 0 || d > uint64(produced+len(hist)) || produced+ln > rawLen {
			return dst, fmt.Errorf("%w: bad copy", ErrCorrupt)
		}
		if int(d) <= produced {
			// Byte-at-a-time: copies may overlap their own output
			// (run-length shapes encode as distance < length).
			start := len(dst) - int(d)
			for k := 0; k < ln; k++ {
				dst = append(dst, dst[start+k])
			}
			continue
		}
		// The copy starts inside the dictionary window; it may run off the
		// window's end into this block's own output.
		hs := len(hist) - (int(d) - produced)
		for k := 0; k < ln; k++ {
			if hs+k < len(hist) {
				dst = append(dst, hist[hs+k])
			} else {
				dst = append(dst, dst[base+hs+k-len(hist)])
			}
		}
	}
	if len(dst)-base != rawLen {
		return dst, fmt.Errorf("%w: block decompressed to %d bytes, want %d", ErrCorrupt, len(dst)-base, rawLen)
	}
	return dst, nil
}

// dictTail returns the dictionary window a block following `raw` may copy
// from: the window-capped tail of the raw payload.
func dictTail(raw []byte) []byte {
	if len(raw) > dictWindowBytes {
		return raw[len(raw)-dictWindowBytes:]
	}
	return raw
}

// commonPrefixLen returns the length of the longest common prefix of a
// and b, comparing 8 bytes at a time.
func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := core.Load64(a, i) ^ core.Load64(b, i); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// RunEncoder seals one record stream as a run in its codec.
// With a writer, completed blocks stream out incrementally, so large runs
// never need run-sized memory; with a nil writer the encoded run
// accumulates internally and Bytes returns it after Flush. Reset reuses
// every internal buffer for the next run. Not safe for concurrent use.
type RunEncoder struct {
	w           io.Writer
	comp        Compression
	blockTarget int
	raw         []byte   // current block payload (pre-LZ framing); None builds it in out
	block       int      // where the open block's payload starts in out, for None
	hist        []byte   // previous block's dictionary tail, kept only for a block that tries LZ
	comb        []byte   // hist ++ raw, the LZ window for one sealBlock
	prevKey     string   // front-coding reference: the block's previous key
	storeLeft   int      // blocks to store verbatim before the next LZ probe
	out         []byte   // pending encoded run bytes
	lz          *lzCoder // nil for None, which never tries LZ
	scratch     []byte   // LZ output scratch
	rawBytes    int64
	err         error
}

// NewRunEncoder creates an encoder for one run. w may be nil (in-memory
// runs: read the result with Bytes after Flush).
func NewRunEncoder(w io.Writer, comp Compression) *RunEncoder {
	e := &RunEncoder{blockTarget: blockTargetBytes}
	e.comp = comp
	if comp != None {
		e.lz = &lzCoder{}
	}
	e.Reset(w)
	return e
}

// Reset prepares the encoder for a new run written to w, keeping the codec
// and the internal buffers.
func (e *RunEncoder) Reset(w io.Writer) {
	e.w = w
	e.raw = e.raw[:0]
	e.hist = e.hist[:0]
	e.prevKey = ""
	e.storeLeft = 0
	e.out = append(append(e.out[:0], runMagic[:]...), byte(e.comp))
	e.block = len(e.out)
	e.rawBytes = 0
	e.err = nil
}

// RawBytes returns the standard (uncompressed) encoded size of every record
// appended since Reset — the number to compare against the sealed size for
// the compression ratio.
func (e *RunEncoder) RawBytes() int64 { return e.rawBytes }

// ScratchBytes approximates the encoder's retained buffer footprint, for
// memory accounting.
func (e *RunEncoder) ScratchBytes() int64 {
	return int64(cap(e.raw) + cap(e.out) + cap(e.scratch) + cap(e.hist) + cap(e.comb))
}

// Append adds one record to the run. Every codec accepts records in any
// order; DeltaBlock compresses key-sorted runs best.
func (e *RunEncoder) Append(r core.Record) error {
	if e.err != nil {
		return e.err
	}
	e.rawBytes += EncodedSize(r)
	switch {
	case e.lz == nil:
		e.out = AppendRecord(e.out, r)
	case e.comp == DeltaBlock:
		shared := commonPrefixLen(e.prevKey, r.Key)
		e.raw = binary.AppendUvarint(e.raw, uint64(shared))
		e.raw = binary.AppendUvarint(e.raw, uint64(len(r.Key)-shared))
		e.raw = append(e.raw, r.Key[shared:]...)
		e.raw = binary.AppendUvarint(e.raw, uint64(len(r.Value)))
		e.raw = append(e.raw, r.Value...)
		e.prevKey = r.Key
	default:
		e.raw = AppendRecord(e.raw, r)
	}
	if len(e.payload()) >= e.blockTarget {
		e.sealBlock()
	}
	return e.err
}

// payload is the open block's payload. None stores every block, so it
// builds the payload in place at the tail of out, where sealBlock frames
// it; the other codecs build it in raw, the input LZ reads.
func (e *RunEncoder) payload() []byte {
	if e.lz == nil {
		return e.out[e.block:]
	}
	return e.raw
}

// sealBlock frames the pending payload as one block: LZ-compressed when
// the codec tries LZ, the block probes it and LZ shrinks it, else stored
// (see probeMinSaving).
func (e *RunEncoder) sealBlock() {
	raw := e.payload()
	if len(raw) == 0 {
		return
	}
	payload, tag := raw, uint64(len(raw))<<2
	switch {
	case e.lz == nil: // None: every block is stored
	case e.storeLeft > 0:
		e.storeLeft--
	default:
		// The LZ window is the previous block's dictionary tail followed by
		// this block's payload — copies may reach across the block boundary.
		e.comb = append(append(e.comb[:0], e.hist...), e.raw...)
		var usedDict bool
		e.scratch, usedDict = e.lz.compress(e.scratch[:0], e.comb, len(e.hist))
		if len(e.scratch) < len(e.raw) {
			payload = e.scratch
			tag = uint64(len(e.scratch))<<2 | 1
			if usedDict {
				tag |= 2
			}
		}
		if (len(e.raw)-len(e.scratch))*probeMinSaving < len(e.raw) {
			e.storeLeft = probeEvery - 1
		}
	}
	var buf [2*binary.MaxVarintLen64 + 4]byte
	hdr := binary.AppendUvarint(buf[:0], uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, tag)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, crcTable))
	if e.lz == nil {
		// Shift the payload, already in place, to make room for its header.
		e.out = append(e.out, hdr...)
		copy(e.out[e.block+len(hdr):], raw)
		copy(e.out[e.block:], hdr)
	} else {
		e.out = append(append(e.out, hdr...), payload...)
	}
	e.block = len(e.out)
	// Only a block that will try LZ reads the window this one leaves.
	e.hist = e.hist[:0]
	if e.lz != nil && e.storeLeft == 0 {
		e.hist = append(e.hist, dictTail(e.raw)...)
	}
	e.raw = e.raw[:0]
	e.prevKey = "" // front-coding restarts per block
	_ = e.maybeWrite()
}

// maybeWrite streams pending output once it is a write's worth.
func (e *RunEncoder) maybeWrite() error {
	if e.w == nil || len(e.out) < 64<<10 {
		return e.err
	}
	return e.writeOut()
}

func (e *RunEncoder) writeOut() error {
	if e.err != nil {
		return e.err
	}
	if _, err := e.w.Write(e.out); err != nil {
		e.err = err
		return err
	}
	e.out = e.out[:0]
	e.block = 0
	return nil
}

// Flush seals the partial tail block and writes everything pending, the
// run header included, so even an empty run is self-describing. The run is
// complete once Flush returns.
func (e *RunEncoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	e.sealBlock()
	if e.w != nil {
		return e.writeOut()
	}
	return e.err
}

// Bytes returns the complete encoded run (nil-writer mode, after Flush).
// The slice is owned by the encoder and valid until the next Reset.
func (e *RunEncoder) Bytes() []byte { return e.out }

// RecordReader is the streaming decode interface of every sealed-run
// reader: Next is false at end of stream or on error, Err distinguishes the
// two.
type RecordReader interface {
	Next() (core.Record, bool)
	Err() error
}

// NewRunDecoder decodes a sealed run from r. The run header names its codec.
func NewRunDecoder(r ByteScanner) RecordReader { return &blockReader{r: r} }

// NewRunDecoderBytes decodes a sealed run held whole in b, in place: every
// block's checksum is verified where it lies, and the strings of stored
// blocks are views of b (DeltaBlock keys excepted, which are rebuilt), so b
// must never be written again while any decoded record is live. LZ blocks
// decompress into the reader's own buffers. The codec argument is ignored
// (the run header names the codec); it stays only for the benchmark's
// existing call of this signature.
func NewRunDecoderBytes(b []byte, _ Compression) RecordReader {
	in := &runBytes{b: b}
	return &blockReader{r: in, in: in}
}

// runBytes is a run held whole in memory as a block reader's source. Run
// and block headers are read through it as through any stream; a block's
// checksum and payload are sliced out of it where they lie.
type runBytes struct{ b []byte }

func (s *runBytes) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

func (s *runBytes) ReadByte() (byte, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c, nil
}

// slice returns the next n bytes in place, capped so that no append through
// the slice can reach past them.
func (s *runBytes) slice(n int) ([]byte, error) {
	if len(s.b) < n {
		return nil, io.ErrUnexpectedEOF
	}
	b := s.b[:n:n]
	s.b = s.b[n:]
	return b, nil
}

// crcBytes is the length of a block's checksum.
const crcBytes = 4

// runHeaderBytes is the length of a run header: the magic and the kind
// byte.
const runHeaderBytes = 5

// readRunHeader reads and validates the run header into hdr, the caller's
// scratch (a local would escape through io.ReadFull, once per run), and
// returns the run's codec.
func readRunHeader(r ByteScanner, hdr *[runHeaderBytes]byte) (Compression, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated run header: %v", ErrCorrupt, err)
	}
	if [4]byte(hdr[:4]) != runMagic {
		return 0, fmt.Errorf("%w: bad run magic %q", ErrCorrupt, string(hdr[:4]))
	}
	if hdr[4] > byte(DeltaBlock) {
		return 0, fmt.Errorf("%w: bad run codec %d", ErrCorrupt, hdr[4])
	}
	return Compression(hdr[4]), nil
}

// blockFrame is one block's header as framed on disk/wire, and the buffer
// its checksum and payload are read into when they cannot be read in place.
type blockFrame struct {
	rawLen  int
	encLen  int
	lz      bool
	dict    bool                 // payload copies reach into the previous block's tail
	payload []byte               // checksum and on-wire payload bytes (reused across frames)
	scratch [runHeaderBytes]byte // run header scratch: a local would escape through io.ReadFull
}

// readBlockHeader reads the next block's lengths and flags into f, leaving
// its checksum and payload next on r. It returns false at the clean end of
// the run; every other shortfall is an error.
func readBlockHeader(r ByteScanner, f *blockFrame) (bool, error) {
	rawLen, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return false, nil // clean end: the run stops at a block boundary
		}
		return false, fmt.Errorf("%w: bad block length: %v", ErrCorrupt, err)
	}
	encTag, err := binary.ReadUvarint(r)
	if err != nil {
		return false, fmt.Errorf("%w: truncated block header: %v", ErrCorrupt, err)
	}
	encLen := encTag >> 2
	f.lz = encTag&1 == 1
	f.dict = encTag&2 == 2
	if rawLen == 0 || rawLen > maxBlockRawBytes || encLen == 0 || encLen > rawLen {
		return false, fmt.Errorf("%w: implausible block sizes raw=%d enc=%d", ErrCorrupt, rawLen, encLen)
	}
	if !f.lz && encLen != rawLen {
		return false, fmt.Errorf("%w: stored block %d bytes, header says %d", ErrCorrupt, encLen, rawLen)
	}
	if f.dict && !f.lz {
		return false, fmt.Errorf("%w: stored block flagged dictionary-dependent", ErrCorrupt)
	}
	f.rawLen, f.encLen = int(rawLen), int(encLen)
	return true, nil
}

// readPayload appends n bytes from r to dst, 64 KiB at a time, so a
// corrupt (huge) length fails at the first missing byte rather than
// allocating the claimed size up front.
func readPayload(r io.Reader, dst []byte, n int) ([]byte, error) {
	for n > 0 {
		c := min(n, 64<<10)
		start := len(dst)
		dst = append(dst, make([]byte, c)...)
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return dst, err
		}
		n -= c
	}
	return dst, nil
}

// decode verifies one block against its checksum and decodes it. framed is
// the block's checksum followed by its payload; a stored block is its
// payload, and an LZ block decompresses into dst. hist is the previous
// block's dictionary tail (ignored unless the block is dictionary-dependent).
func (f *blockFrame) decode(dst, framed, hist []byte) ([]byte, error) {
	payload := framed[crcBytes:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(framed); got != want {
		return dst, fmt.Errorf("%w: block checksum mismatch: got %08x, want %08x", ErrCorrupt, got, want)
	}
	if !f.lz {
		return payload, nil
	}
	if !f.dict {
		hist = nil
	} else if len(hist) == 0 {
		return dst, fmt.Errorf("%w: dictionary-dependent block with no preceding block", ErrCorrupt)
	}
	return lzDecompress(dst[:0], payload, hist, f.rawLen)
}

// blockParser cuts records out of one decoded block payload; setBlock hands
// it the next one.
type blockParser struct {
	delta   bool
	block   []byte // decoded current block payload
	views   bool   // block is never written again: strings view it (DeltaBlock keys are rebuilt)
	off     int    // cursor within block
	prevKey []byte // front-coding state within block
	arena   *Arena // optional: record strings cut from shared chunks
	err     error
}

// setBlock points the parser at the next decoded block payload; views says
// the payload is never written again (an arena's bytes, or an in-memory
// run's).
func (p *blockParser) setBlock(b []byte, views bool) {
	p.block = b
	p.views = views
	p.off = 0
	p.prevKey = p.prevKey[:0] // front-coding restarts per block
}

// exhausted reports whether the current block is fully parsed.
func (p *blockParser) exhausted() bool { return p.off >= len(p.block) }

// next parses one record; false when the block is exhausted or corrupt.
func (p *blockParser) next() (core.Record, bool) {
	if p.err != nil || p.exhausted() {
		return core.Record{}, false
	}
	if p.delta {
		return p.nextDelta()
	}
	b := p.block[p.off:]
	k0, k1, ok := field(b, 0)
	v0, v1 := k1, k1
	if ok {
		v0, v1, ok = field(b, k1)
	}
	if !ok {
		return core.Record{}, p.corrupt("bad record in block at offset %d", p.off)
	}
	p.off += v1
	return core.Record{Key: p.cut(b[k0:k1]), Value: p.cut(b[v0:v1])}, true
}

// field locates the length-prefixed string at b[at:]: its body is
// b[start:end]. ok is false when the length prefix is malformed or b ends
// inside the string.
func field(b []byte, at int) (start, end int, ok bool) {
	var l uint64
	n := 1
	if at < len(b) && b[at] < 0x80 {
		l = uint64(b[at])
	} else if l, n = binary.Uvarint(b[at:]); n <= 0 {
		return 0, 0, false
	}
	start = at + n
	if uint64(len(b)-start) < l {
		return 0, 0, false
	}
	return start, start + int(l), true
}

// cut is a decoded key or value as a string: a view of a block that is
// never written again, else a copy, out of the arena when there is one.
func (p *blockParser) cut(b []byte) string {
	if p.views {
		return view(b)
	}
	if p.arena != nil {
		return p.arena.String(b)
	}
	return string(b)
}

// corrupt latches a corruption error.
func (p *blockParser) corrupt(format string, args ...any) bool {
	p.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	return false
}

// uvarint decodes one varint from the current block.
func (p *blockParser) uvarint() (uint64, bool) {
	if p.off < len(p.block) {
		if b := p.block[p.off]; b < 0x80 {
			p.off++
			return uint64(b), true
		}
	}
	v, n := binary.Uvarint(p.block[p.off:])
	if n <= 0 {
		return 0, p.corrupt("bad varint in block at offset %d", p.off)
	}
	p.off += n
	return v, true
}

// bytesN slices n payload bytes from the current block.
func (p *blockParser) bytesN(n uint64) ([]byte, bool) {
	if uint64(len(p.block)-p.off) < n {
		return nil, p.corrupt("truncated record in block at offset %d", p.off)
	}
	s := p.block[p.off : p.off+int(n)]
	p.off += int(n)
	return s, true
}

// str decodes one length-prefixed string from the current block.
func (p *blockParser) str() (string, bool) {
	n, ok := p.uvarint()
	if !ok {
		return "", false
	}
	s, ok := p.bytesN(n)
	if !ok {
		return "", false
	}
	return p.cut(s), true
}

// nextDelta decodes one front-coded record.
func (p *blockParser) nextDelta() (core.Record, bool) {
	shared, ok := p.uvarint()
	if !ok {
		return core.Record{}, false
	}
	if shared > uint64(len(p.prevKey)) {
		return core.Record{}, p.corrupt("shared prefix %d exceeds previous key length %d", shared, len(p.prevKey))
	}
	sufLen, ok := p.uvarint()
	if !ok {
		return core.Record{}, false
	}
	suffix, ok := p.bytesN(sufLen)
	if !ok {
		return core.Record{}, false
	}
	p.prevKey = append(p.prevKey[:int(shared)], suffix...)
	val, ok := p.str()
	if !ok {
		return core.Record{}, false
	}
	// One copy of the key: out of the arena when there is one, else its own
	// heap string — never both.
	if p.arena != nil {
		return core.Record{Key: p.arena.String(p.prevKey), Value: val}, true
	}
	return core.Record{Key: string(p.prevKey), Value: val}, true
}

// blockReader streams records out of a sealed run, decoding one block at a
// time on the calling goroutine. Two block buffers alternate so
// the previous block's tail stays live as the next block's dictionary
// window without a copy; a stored block swaps with the payload buffer
// instead of being copied into one.
//
// A stored block can also be parsed where its bytes stay, its records'
// strings views of it. The two sources differ only in where those bytes
// come from: a run held whole in memory (in) is sliced in place, and with
// an arena a stored block of standard framing (None, or Block where LZ did
// not pay) that fits an arena chunk is read straight into the arena, copied
// once off the stream. A viewed block is never the reader's to reuse: it
// never becomes spare scratch, so no later block decodes into it.
type blockReader struct {
	r          ByteScanner
	in         *runBytes // r, when the run is whole in memory
	headerDone bool
	frame      blockFrame
	p          blockParser
	spare      []byte // the other half of the double buffer
	arena      *Arena
	err        error
}

// Next implements RecordReader.
func (b *blockReader) Next() (core.Record, bool) {
	if b.err != nil {
		return core.Record{}, false
	}
	for b.p.exhausted() {
		if !b.nextBlock() {
			return core.Record{}, false
		}
	}
	rec, ok := b.p.next()
	if !ok {
		b.err = b.p.err
	}
	return rec, ok
}

// Err implements RecordReader.
func (b *blockReader) Err() error { return b.err }

// nextBlock reads, validates and decodes the next block. false at clean end
// of run or on error.
func (b *blockReader) nextBlock() bool {
	if !b.headerDone {
		kind, err := readRunHeader(b.r, &b.frame.scratch)
		if err != nil {
			b.err = err
			return false
		}
		b.p.delta = kind == DeltaBlock
		b.p.arena = b.arena
		b.headerDone = true
	}
	f := &b.frame
	ok, err := readBlockHeader(b.r, f)
	if !ok {
		b.err = err
		return false
	}
	// The block's checksum and payload, in one piece. This is the one place
	// the two sources differ: a run in memory is sliced where it lies, and
	// off a stream a stored block of standard framing is read once into the
	// arena (at most a chunk, so a corrupt length allocates no more before
	// the read fails). A stored block read either way is parsed in place,
	// its strings views of it. Anything else is read into the payload buffer.
	n := crcBytes + f.encLen
	var framed []byte
	inPlace := true
	switch {
	case b.in != nil:
		framed, err = b.in.slice(n)
	case b.arena != nil && !f.lz && !b.p.delta && n <= arenaChunkBytes:
		framed = b.arena.alloc(n)
		_, err = io.ReadFull(b.r, framed)
	default:
		f.payload, err = readPayload(b.r, f.payload[:0], n)
		framed, inPlace = f.payload, false
	}
	prev, prevViews := b.p.block, b.p.views
	var next []byte
	if err != nil {
		err = fmt.Errorf("%w: truncated block: %v", ErrCorrupt, err)
	} else {
		next, err = f.decode(b.spare[:0], framed, dictTail(prev))
	}
	switch {
	case f.lz: // decompressed into the spare buffer
		b.spare = nil
	case !inPlace: // the payload buffer is the block: swap, don't copy
		f.payload, b.spare = b.spare[:0], nil
	}
	// The block just drained becomes spare scratch, unless it is a view:
	// its bytes stayed valid as the dictionary window for this decode.
	if !prevViews {
		b.spare = prev
	}
	if err != nil {
		b.err = err
		return false
	}
	b.p.setBlock(next, inPlace && !f.lz)
	return true
}

// SectionDecoder is a reusable run decoder for section streams — the
// shuffle fetch path resets one per pooled connection instead of
// allocating a fresh decoder (plus block and scratch buffers) for every
// fetched section. Not safe for concurrent use; one section at a time.
type SectionDecoder struct{ br blockReader }

// Reset prepares the decoder for one section read from r, keeping its
// block and payload buffers, and returns the RecordReader to drain it with
// (valid until the next Reset). A non-nil arena makes record strings share
// chunk backing — see Arena for the retention trade-off.
func (d *SectionDecoder) Reset(r ByteScanner, arena *Arena) RecordReader {
	b := &d.br
	b.r, b.arena, b.headerDone, b.err, b.p.err = r, arena, false, nil, nil
	block := b.p.block[:0]
	if b.p.views {
		block = nil // a view, never a buffer to reuse
	}
	b.p.setBlock(block, false)
	return b
}
