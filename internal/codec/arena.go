package codec

import "unsafe"

// arenaChunkBytes is the allocation granularity of an Arena. Large enough
// to amortize away per-record allocations, small enough that a stray
// retained string pins little, and sized so that two stored blocks (32 KiB
// each, plus its checksum and a last record of up to 4 KiB) fill one chunk:
// at 64 KiB each block took a chunk of its own.
const arenaChunkBytes = 72 << 10

// Arena allocates record strings out of append-only chunks, so a decode
// path that would otherwise pay two heap allocations per record (key and
// value) pays one per 72KiB of decoded data. Strings returned by String
// are immutable views into a chunk and stay valid forever — the chunk is
// garbage-collected only once every string cut from it is dead.
//
// The trade: strings from one chunk share backing memory, so RETAINING one
// record's key or value keeps its whole chunk (≤72KiB plus neighbouring
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
	s := a.alloc(len(b))
	copy(s, b)
	return view(s)
}

// alloc reserves the next n bytes of the current chunk, starting a fresh
// chunk when they do not fit. The old chunk is abandoned, not freed:
// strings already cut from it keep it alive exactly as long as they need
// it. The caller writes the reserved bytes exactly once, before any view of
// them exists, and never after — the same discipline the stores' slabs use.
func (a *Arena) alloc(n int) []byte {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]byte, 0, max(arenaChunkBytes, n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
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
