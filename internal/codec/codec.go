// Package codec serializes records as uvarint-length-prefixed key/value
// pairs. The bare record stream (AppendRecords, DecodeViews) is the
// payload of mpexec's control frames; every sealed run — spill runs,
// shuffle segments, store spills — wraps the same framing in the one block
// format of compress.go, with a per-block CRC-32C and optional LZ.
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

// DecodeViews parses n records from the front of b and appends them to dst.
// It runs the parser that cuts records out of a run's blocks, on a buffer
// that is already whole, and copies nothing: the records' strings are views
// into b, so b must never be written again while any of them is live. Fewer
// than n whole records in b is ErrCorrupt; bytes after the n-th record are
// ignored.
func DecodeViews(dst []core.Record, b []byte, n int) ([]core.Record, error) {
	p := blockParser{block: b, views: true}
	for range n {
		r, ok := p.next()
		if !ok {
			if p.err == nil {
				p.err = fmt.Errorf("%w: truncated record", ErrCorrupt)
			}
			return dst, p.err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// ByteScanner is the reader the block decoders read from. *bufio.Reader and
// *bytes.Reader both satisfy it.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}
