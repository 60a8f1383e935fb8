// Package codec serializes record streams to flat byte buffers using
// uvarint-length-prefixed key/value pairs. Spill files, shuffle segments and
// the key/value store log all share this format.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

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

// AppendRecords appends all records to dst.
func AppendRecords(dst []byte, recs []core.Record) []byte {
	for _, r := range recs {
		dst = AppendRecord(dst, r)
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

// ByteScanner is the reader a StreamReader decodes from. *bufio.Reader and
// *bytes.Reader both satisfy it.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// StreamReader decodes records incrementally from an io stream (a spill
// file) without loading the stream into memory. It returns errors instead
// of panicking: disk-backed runs can be truncated by crashes or partial
// writes, and the merge path must surface that, not die.
type StreamReader struct {
	r     ByteScanner
	buf   []byte // scratch for key/value bytes, reused across records
	arena *Arena // optional: record strings cut from shared chunks
	err   error
}

// NewStreamReader wraps r.
func NewStreamReader(r ByteScanner) *StreamReader { return &StreamReader{r: r} }

// Reset points the reader at a new stream, keeping its scratch buffer (and
// arena) so one reader can decode many runs without reallocating.
func (sr *StreamReader) Reset(r ByteScanner) {
	sr.r = r
	sr.err = nil
}

// NewStreamReaderBytes wraps an in-memory encoded buffer, of any provenance:
// in a network frame truncation is an input condition, not a framework bug,
// and comes back as ErrCorrupt like a truncated file's.
func NewStreamReaderBytes(b []byte) *StreamReader { return NewStreamReader(bytes.NewReader(b)) }

// Next decodes the next record. ok is false at end of stream or on error;
// check Err to distinguish. The returned record's strings do not alias the
// internal scratch buffer.
func (sr *StreamReader) Next() (core.Record, bool) {
	if sr.err != nil {
		return core.Record{}, false
	}
	key, err := sr.str(true)
	if err != nil {
		if err != io.EOF { // EOF before a length prefix is a clean end
			sr.err = err
		}
		return core.Record{}, false
	}
	val, err := sr.str(false)
	if err != nil {
		sr.err = err // any failure mid-record is corruption
		return core.Record{}, false
	}
	return core.Record{Key: key, Value: val}, true
}

// str reads one length-prefixed string. atRecordStart distinguishes a clean
// EOF (between records) from a truncated record.
func (sr *StreamReader) str(atRecordStart bool) (string, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		if err == io.EOF && atRecordStart {
			return "", io.EOF
		}
		return "", fmt.Errorf("%w: bad length prefix: %v", ErrCorrupt, err)
	}
	if n > uint64(1<<31) {
		return "", fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	const chunk = 64 << 10
	if n <= chunk {
		if uint64(cap(sr.buf)) < n {
			sr.buf = make([]byte, n)
		}
		b := sr.buf[:n]
		if _, err := io.ReadFull(sr.r, b); err != nil {
			return "", fmt.Errorf("%w: truncated record body: %v", ErrCorrupt, err)
		}
		if sr.arena != nil {
			return sr.arena.String(b), nil
		}
		return string(b), nil
	}
	// Large value: read chunk by chunk so a corrupt (huge) length prefix
	// fails at the first missing byte — allocation tracks the bytes the
	// stream actually contains, never the claimed length.
	var sb strings.Builder
	if cap(sr.buf) < chunk {
		sr.buf = make([]byte, chunk)
	}
	for remaining := n; remaining > 0; {
		c := uint64(chunk)
		if remaining < c {
			c = remaining
		}
		b := sr.buf[:c]
		if _, err := io.ReadFull(sr.r, b); err != nil {
			return "", fmt.Errorf("%w: truncated record body: %v", ErrCorrupt, err)
		}
		sb.Write(b)
		remaining -= c
	}
	return sb.String(), nil
}

// Err returns the first decode error encountered, if any.
func (sr *StreamReader) Err() error { return sr.err }
