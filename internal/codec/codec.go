// Package codec serializes record streams to flat byte buffers using
// uvarint-length-prefixed key/value pairs. Spill files, shuffle segments and
// the key/value store log all share this format.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"blmr/internal/core"
)

// AppendRecord appends the encoding of r to dst and returns the extended
// buffer.
func AppendRecord(dst []byte, r core.Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	return dst
}

// AppendRecords appends the records of every chunk to dst, in order,
// growing it once, to the exact size EncodedSize sums.
func AppendRecords(dst []byte, chunks ...[]core.Record) []byte {
	var n int64
	for _, recs := range chunks {
		for _, r := range recs {
			n += EncodedSize(r)
		}
	}
	if int64(cap(dst)-len(dst)) < n {
		// Not slices.Grow: the race build does not fuse its
		// append(s, make(...)...) and allocates twice.
		grown := make([]byte, len(dst), int64(len(dst))+n)
		copy(grown, dst)
		dst = grown
	}
	for _, recs := range chunks {
		for _, r := range recs {
			dst = AppendRecord(dst, r)
		}
	}
	return dst
}

// EncodedSize returns the exact encoded size of r in bytes.
func EncodedSize(r core.Record) int64 {
	return int64(uvarintLen(uint64(len(r.Key))) + len(r.Key) + uvarintLen(uint64(len(r.Value))) + len(r.Value))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ErrCorrupt reports a structurally invalid record stream: a malformed
// length prefix, or a stream that ends mid-record (a partial write that was
// never completed).
var ErrCorrupt = errors.New("codec: corrupt record stream")

// maxStringBytes is the longest key or value a decoder accepts; a longer
// length prefix is corrupt.
const maxStringBytes = 1 << 31

// field locates the length-prefixed string at b[at:]: its body is
// b[start:end]. When b ends inside the field, need is a lower bound on the
// length of a buffer that holds it (need > len(b)); otherwise need is 0.
func field(b []byte, at int) (start, end, need int, err error) {
	l, n := binary.Uvarint(b[at:])
	switch {
	case n < 0:
		return 0, 0, 0, fmt.Errorf("%w: bad length prefix at offset %d", ErrCorrupt, at)
	case n == 0:
		return 0, 0, len(b) + 1, nil
	case l > maxStringBytes:
		return 0, 0, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, l)
	}
	start = at + n
	if uint64(len(b)-start) < l {
		return 0, 0, start + int(l), nil
	}
	return start, start + int(l), 0, nil
}

// cut is the one record parser, shared by StreamReader and DecodeViews. It
// locates the record at the front of b: its key is b[k0:k1], its value
// b[v0:v1], and it ends at v1. When b holds only part of the record, need
// is a lower bound on the record's encoded length (need > len(b)).
func cut(b []byte) (k0, k1, v0, v1, need int, err error) {
	if k0, k1, need, err = field(b, 0); need > 0 || err != nil {
		return 0, 0, 0, 0, need, err
	}
	v0, v1, need, err = field(b, k1)
	return k0, k1, v0, v1, need, err
}

// DecodeViews parses n records from the front of b and appends them to dst.
// It runs the parser StreamReader runs over its chunks, on a buffer that is
// already whole, and copies nothing: the records' strings are views into b,
// so b must never be written again while any of them is live. Fewer than n
// whole records in b is ErrCorrupt; bytes after the n-th record are ignored.
func DecodeViews(dst []core.Record, b []byte, n int) ([]core.Record, error) {
	for range n {
		k0, k1, v0, v1, need, err := cut(b)
		if need > 0 {
			err = fmt.Errorf("%w: truncated record", ErrCorrupt)
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, core.Record{Key: view(b[k0:k1]), Value: view(b[v0:v1])})
		b = b[v1:]
	}
	return dst, nil
}

// ByteScanner is the reader the block decoders read from. *bufio.Reader and
// *bytes.Reader both satisfy it.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// minReadBytes is the least free space a StreamReader reads into: below it,
// the reader makes room first (rechunk) rather than fill the tail with a
// string of tiny reads.
const minReadBytes = 512

// StreamReader decodes records incrementally from an io stream (a spill
// file, a fetched section) without loading the stream into memory. It reads
// the stream in 64 KiB chunks and parses the uvarint lengths and bodies
// straight out of the chunk; a record that straddles a chunk boundary
// carries its unparsed head into the next chunk. A chunk grows past 64 KiB
// only for a record that does not fit, and then in step with the bytes the
// stream actually holds, never to a claimed length. It returns errors
// instead of panicking: disk-backed runs can be truncated by crashes or
// partial writes, and the merge path must surface that, not die.
//
// Without an arena the chunk is scratch, refilled once parsed, so every
// string is copied out of it. With an arena the chunk is the arena's:
// strings are views into bytes that are never written again (Arena's
// contract, with one copy fewer), and each Reset keeps filling the same
// chunk's unused tail, so a small section does not cost a fresh chunk.
type StreamReader struct {
	r       io.Reader // nil: buf is the whole stream, the caller's
	buf     []byte    // buf[off:] is read but not yet parsed
	off     int
	scratch []byte // the chunk without an arena, kept across Reset
	arena   *Arena // optional: the chunk is the arena's, strings view it
	rerr    error  // the stream's first read error; io.EOF at its end
	err     error
}

// NewStreamReader wraps r.
func NewStreamReader(r io.Reader) *StreamReader {
	sr := new(StreamReader)
	sr.Reset(r)
	return sr
}

// Reset points the reader at a new stream, keeping its chunk (and arena)
// so one reader can decode many runs without reallocating.
func (sr *StreamReader) Reset(r io.Reader) {
	sr.r, sr.rerr, sr.err = r, nil, nil
	if sr.arena != nil {
		sr.buf = sr.arena.buf
		sr.off = len(sr.buf)
	} else {
		sr.buf, sr.off = sr.scratch[:0], 0
	}
}

// NewStreamReaderBytes decodes an in-memory encoded buffer in place, of any
// provenance: in a network frame truncation is an input condition, not a
// framework bug, and comes back as ErrCorrupt like a truncated file's.
func NewStreamReaderBytes(b []byte) *StreamReader {
	return &StreamReader{buf: b, rerr: io.EOF}
}

// Next decodes the next record. ok is false at end of stream or on error;
// check Err to distinguish. Without an arena the returned record's strings
// do not alias the reader's chunk.
func (sr *StreamReader) Next() (core.Record, bool) {
	for sr.err == nil {
		b := sr.buf[sr.off:]
		k0, k1, v0, v1, need, err := cut(b)
		if err != nil {
			sr.err = err
			break
		}
		if need == 0 {
			sr.off += v1
			return core.Record{Key: sr.str(b[k0:k1]), Value: sr.str(b[v0:v1])}, true
		}
		if sr.fill(need) {
			continue
		}
		if sr.rerr == io.EOF && len(b) == 0 {
			break // EOF before a length prefix is a clean end
		}
		sr.err = fmt.Errorf("%w: truncated record: %v", ErrCorrupt, sr.rerr)
	}
	return core.Record{}, false
}

func (sr *StreamReader) str(b []byte) string {
	if sr.arena != nil {
		return view(b)
	}
	return string(b)
}

// fill reads more of the stream into the chunk. It reads into the chunk's
// free tail unless that is both short of minReadBytes and short of the
// record, which needs need bytes from the parse cursor; then it makes room
// first. It is false once the stream has ended or failed and nothing more
// was read.
func (sr *StreamReader) fill(need int) bool {
	for sr.rerr == nil {
		if cap(sr.buf)-len(sr.buf) < minReadBytes && cap(sr.buf)-sr.off < need {
			sr.rechunk(need)
		}
		n, err := sr.r.Read(sr.buf[len(sr.buf):cap(sr.buf)])
		sr.setBuf(sr.buf[:len(sr.buf)+n])
		sr.rerr = err
		if n > 0 {
			return true
		}
	}
	return false
}

// rechunk moves the unparsed bytes to the front of a chunk with room for
// more of the record. A long record grows the chunk by doubling what has
// arrived, so a corrupt huge length allocates in step with the bytes
// present. Scratch compacts in place when it is already that large; an
// arena's chunk is never written again, so it always takes a fresh one.
func (sr *StreamReader) rechunk(need int) {
	pending := sr.buf[sr.off:]
	size := max(arenaChunkBytes, min(need, 2*len(pending)))
	if sr.arena == nil && cap(sr.buf) >= size {
		sr.buf = sr.buf[:copy(sr.buf, pending)]
		sr.off = 0
		return
	}
	chunk := append(make([]byte, 0, size), pending...)
	if sr.arena == nil {
		sr.scratch = chunk
	}
	sr.setBuf(chunk)
	sr.off = 0
}

func (sr *StreamReader) setBuf(b []byte) {
	sr.buf = b
	if sr.arena != nil {
		sr.arena.buf = b
	}
}

// Err returns the first decode error encountered, if any.
func (sr *StreamReader) Err() error { return sr.err }
