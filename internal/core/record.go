// Package core defines the data model and programming interfaces of the
// barrier-less MapReduce framework: records, Map/Reduce contracts for both
// the classic (barrier) and pipelined (barrier-less) execution modes, and
// the Reduce-operation classification from the paper.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Record is a key/value pair flowing between stages. Keys compare
// byte-lexicographically everywhere in the framework; numeric keys use the
// order-preserving encodings below so lexicographic order equals numeric
// order.
type Record struct {
	Key   string
	Value string
}

// RecordOverheadBytes approximates per-record bookkeeping overhead
// (headers, pointers) when accounting memory and I/O volume.
const RecordOverheadBytes = 16

// Size returns the accounted in-memory/on-wire size of the record in bytes.
func (r Record) Size() int64 {
	return int64(len(r.Key)) + int64(len(r.Value)) + RecordOverheadBytes
}

func (r Record) String() string { return fmt.Sprintf("%s\t%s", r.Key, r.Value) }

// RecordsSize sums the accounted sizes of a batch of records.
func RecordsSize(recs []Record) int64 {
	var n int64
	for _, r := range recs {
		n += r.Size()
	}
	return n
}

// Load64 reads s[i:i+8] as a little-endian word. It is small enough to
// inline, and the compiler merges the byte loads into one: the word-at-a-time
// scans (key prefixes, word ends, index probes) read strings through it.
func Load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// --- Order-preserving codecs ---------------------------------------------

// EncodeUint64 encodes v so lexicographic string order equals numeric order.
func EncodeUint64(v uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return string(b[:])
}

// DecodeUint64 reverses EncodeUint64.
func DecodeUint64(s string) uint64 {
	if len(s) != 8 {
		panic(fmt.Sprintf("core: DecodeUint64 on %d-byte string", len(s)))
	}
	return binary.BigEndian.Uint64([]byte(s))
}

// EncodeInt64 encodes signed integers order-preservingly by flipping the
// sign bit.
func EncodeInt64(v int64) string {
	return EncodeUint64(uint64(v) ^ (1 << 63))
}

// DecodeInt64 reverses EncodeInt64.
func DecodeInt64(s string) int64 {
	return int64(DecodeUint64(s) ^ (1 << 63))
}

// EncodeFloat64 encodes floats order-preservingly (IEEE 754 trick: flip all
// bits for negatives, flip the sign bit for non-negatives). NaNs sort above
// +Inf and are not otherwise distinguished.
func EncodeFloat64(v float64) string {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return EncodeUint64(bits)
}

// DecodeFloat64 reverses EncodeFloat64.
func DecodeFloat64(s string) float64 {
	bits := DecodeUint64(s)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// JoinValues/SplitValues and JoinList/SplitList serialize small tuples and
// lists into a single value string using length-prefixed (uvarint) parts, so
// elements may contain arbitrary bytes — including the binary
// order-preserving encodings above. JoinValues is for fixed-arity tuples
// (e.g. (distance, payload)); JoinList is for variable-length lists (e.g. a
// top-k list). Both use the same binary-safe wire format.
//
// Note that packed strings are NOT order-preserving across elements of
// different lengths; store comparisons must happen on the unpacked parts or
// on fixed-width encoded prefixes.

func packStrings(parts []string) string {
	var n int
	for _, p := range parts {
		n += len(p) + 2
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return string(buf)
}

func unpackStrings(s string) []string {
	var out []string
	for c := NewListCursor(s); c.Next(); {
		out = append(out, strings.Clone(c.Elem))
	}
	return out
}

// ListCursor reads a packed list or tuple (JoinList, JoinValues) in place,
// one element at a time, so a caller that only compares or copies the
// elements never makes a string of each. A corrupt list panics, as
// SplitList does.
type ListCursor struct {
	Elem   string // the current element, a view into the list
	Framed string // the current element as it lies in the list, length prefix included
	rest   string
}

// NewListCursor returns a cursor before the first element of s.
func NewListCursor(s string) ListCursor { return ListCursor{rest: s} }

// Next moves to the next element and reports whether there is one.
func (c *ListCursor) Next() bool {
	if c.rest == "" {
		c.Elem, c.Framed = "", ""
		return false
	}
	// At most MaxVarintLen64 bytes, so the conversion stays on the stack.
	n, sz := binary.Uvarint([]byte(c.rest[:min(len(c.rest), binary.MaxVarintLen64)]))
	if sz <= 0 || n > uint64(len(c.rest)-sz) {
		panic("core: corrupt packed string")
	}
	end := sz + int(n)
	c.Elem, c.Framed, c.rest = c.rest[sz:end], c.rest[:end], c.rest[end:]
	return true
}

// JoinValues packs a fixed-arity tuple of parts into one value string.
func JoinValues(parts ...string) string { return packStrings(parts) }

// SplitValues unpacks a value produced by JoinValues.
func SplitValues(s string) []string { return unpackStrings(s) }

// SplitPair reads a two-part tuple produced by JoinValues in place: both
// parts are views into s, so it allocates nothing. A value of any other
// arity panics, as a corrupt one does.
func SplitPair(s string) (a, b string) {
	n := 0
	for c := NewListCursor(s); c.Next(); n++ {
		a, b = b, c.Elem // after two parts: a is the first, b the second
	}
	if n != 2 {
		panic(fmt.Sprintf("core: packed pair has %d parts", n))
	}
	return a, b
}

// JoinList packs a variable-length list of elements into one value string.
func JoinList(elems ...string) string { return packStrings(elems) }

// SplitList unpacks a list produced by JoinList.
func SplitList(s string) []string { return unpackStrings(s) }

// ListLen counts the elements of a list produced by JoinList, in place.
func ListLen(s string) int {
	n := 0
	for c := NewListCursor(s); c.Next(); {
		n++
	}
	return n
}
