// Package codec serializes records as uvarint-length-prefixed key/value
// pairs, wrapped in the one sealed-run format of compress.go: blocks of
// whole records, each with a CRC-32C, LZ-compressed where it pays. It is the
// only byte form of a record list — spill runs, shuffle segments, store
// spills, and the record lists of mpexec's frames and journal records
// (AppendRun, DecodeRun) alike. A run is read by one block reader, from a
// stream or in place from a buffer.
package codec

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"

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

// EncodedSize returns the exact encoded size of r in bytes.
func EncodedSize(r core.Record) int64 {
	return int64(uvarintLen(uint64(len(r.Key))) + len(r.Key) + uvarintLen(uint64(len(r.Value))) + len(r.Value))
}

// uvarintLen is the length of v's uvarint encoding: 7 bits a byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ErrCorrupt reports a structurally invalid record stream: a malformed
// length prefix, or a stream that ends mid-record (a partial write that was
// never completed).
var ErrCorrupt = errors.New("codec: corrupt record stream")

// AppendRun appends the records of every chunk, in order, to dst as one
// sealed None run (stored blocks, each with its checksum), growing dst at
// most once. It is the byte form of every record list mpexec puts in a
// frame or a journal record.
func AppendRun(dst []byte, chunks ...[]core.Record) []byte {
	var n int64
	for _, recs := range chunks {
		for _, r := range recs {
			n += EncodedSize(r)
		}
	}
	// The run header, plus at most 14 bytes (two 5-byte varints and the
	// checksum) per block: every block but the last holds at least
	// blockTargetBytes.
	n += runHeaderBytes + (n/blockTargetBytes+1)*(2*5+crcBytes)
	if need := int64(len(dst)) + n; int64(cap(dst)) < need {
		// Not slices.Grow: the race build does not fuse its
		// append(s, make(...)...) and allocates twice.
		dst = append(make([]byte, 0, need), dst...)
	}
	e := RunEncoder{comp: None, blockTarget: blockTargetBytes, out: append(append(dst, runMagic[:]...), byte(None))}
	e.block = len(e.out)
	for _, recs := range chunks {
		for _, r := range recs {
			_ = e.Append(r) // with no writer, nothing fails
		}
	}
	_ = e.Flush()
	return e.out
}

// DecodeRun appends every record of the sealed run b to dst, decoding in
// place as NewRunDecoderBytes does: the strings of stored blocks are views
// of b, so b must never be written again while any of them is live. A run
// that is corrupt anywhere, its checksums included, is ErrCorrupt.
func DecodeRun(dst []core.Record, b []byte) ([]core.Record, error) {
	rd := NewRunDecoderBytes(b, None)
	for r, ok := rd.Next(); ok; r, ok = rd.Next() {
		dst = append(dst, r)
	}
	return dst, rd.Err()
}

// ByteScanner is the reader the block decoders read from. *bufio.Reader and
// *bytes.Reader both satisfy it.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}
