package codec

import "unsafe"

// arenaChunkBytes is the allocation granularity of an Arena. Large enough
// to amortize away per-record allocations, small enough that a stray
// retained string pins little.
const arenaChunkBytes = 64 << 10

// Arena allocates record strings out of append-only chunks, so a decode
// path that would otherwise pay two heap allocations per record (key and
// value) pays one per 64KiB of decoded data. Strings returned by String
// are immutable views into a chunk and stay valid forever — the chunk is
// garbage-collected only once every string cut from it is dead.
//
// The trade: strings from one chunk share backing memory, so RETAINING one
// record's key or value keeps its whole chunk (≤64KiB plus neighbouring
// records) alive. Arena decoding therefore suits streaming consumers that
// fold or copy what they keep (the external merge's group reduce; the
// in-memory and spill stores, which copy each key and each first-seen value
// into their own slabs on insert — a merged value is a new string already);
// long-lived indexes over raw decoded strings should strings.Clone what they
// retain or decode without an arena.
//
// Not safe for concurrent use.
type Arena struct {
	buf []byte
}

// String copies b into the arena and returns it as a string.
func (a *Arena) String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(a.buf)+len(b) > cap(a.buf) {
		n := arenaChunkBytes
		if len(b) > n {
			n = len(b)
		}
		// The old chunk is abandoned, not freed: strings already cut from
		// it keep it alive exactly as long as they need it.
		a.buf = make([]byte, 0, n)
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	// The bytes at [off, off+len(b)) are written exactly once, before the
	// unsafe.String view exists, and never mutated after — the same
	// discipline the stores' slabs use.
	return unsafe.String(&a.buf[off], len(b))
}

// view is b as a string, without a copy. The caller guarantees b is never
// written again while the string is live: an arena chunk's written bytes, or
// a frame payload nothing reuses.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
