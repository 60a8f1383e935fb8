// Package rbtree implements a left-leaning red-black tree keyed by string —
// the framework's equivalent of Java's TreeMap, which the paper uses to hold
// per-key partial results in key order.
//
// The tree tracks an approximate byte footprint of its contents so the
// engine can account reducer heap usage and trigger spills.
//
// Allocation is slab-backed: nodes come from fixed-size chunks and key
// clones from append-only byte slabs, so inserting a million fresh keys
// costs thousands of allocations instead of millions (two per key — the
// node and the defensive key copy — dominated the pipelined Sort
// benchmark's ~2M allocs/op before slabs). ClearReuse recycles the slabs
// across spill cycles, the free-list discipline the spill store's
// fill/seal/clear loop wants.
//
// Get, Put and Update share one read-only probe: a hot-key cache lookup,
// then an iterative descent with one three-way compare per level that
// writes to no node. A key that is present costs that probe and an
// in-place value swap; linking a node and rebalancing, bottom-up along the
// path the probe recorded, happen only when a key is actually added.
// Nothing is ever deleted (Clear and ClearReuse drop the whole tree), so no
// key ever moves between nodes — which is what keeps a cached *node valid
// across rotations.
package rbtree

import (
	"strings"
	"unsafe"
)

const (
	red   = true
	black = false

	// keySlabBytes is the size of one key-bytes slab.
	keySlabBytes = 64 << 10
	// maxSlabKeyBytes is the largest key cloned into a slab; bigger keys
	// get their own allocation so one giant key cannot waste a slab.
	maxSlabKeyBytes = 4 << 10
	// nodeChunkLen is the number of nodes per allocation chunk.
	nodeChunkLen = 256
	// cacheSlots is the size of the direct-mapped hot-key cache (a power
	// of two; 32 KiB per tree). See DESIGN.md §4 for what it was sized
	// against.
	cacheSlots = 2048
)

// NodeOverheadBytes approximates the per-node allocation overhead (pointers,
// color, string headers) used for memory accounting. It is exported so
// every layer that budgets "one buffered record" — the tree itself, the
// engines' mapper-side spill triggers, the examples' reports — charges the
// same per-entry overhead (see store.ApproxRecordBytes).
const NodeOverheadBytes = 64

type node[V any] struct {
	key         string
	val         V
	left, right *node[V]
	color       bool
	n           int // subtree size
}

// Tree is an ordered string-keyed map. The zero value is NOT usable; create
// trees with New. Not safe for concurrent use.
type Tree[V any] struct {
	root   *node[V]
	sizeOf func(V) int64
	bytes  int64
	path   []*node[V] // find's root-to-leaf descent, consumed by add

	// Slab state. keySlab/nodeChunk are the partially filled current
	// slabs; used* hold filled slabs whose contents the live tree may
	// still reference; spare* hold recycled slabs (ClearReuse) that are
	// provably unreferenced and safe to overwrite.
	keySlab     []byte
	usedSlabs   [][]byte
	spareSlabs  [][]byte
	nodeChunk   []node[V] // unallocated remainder of curChunk
	curChunk    []node[V] // the full current chunk, for recycling
	usedChunks  [][]node[V]
	spareChunks [][]node[V]

	// cache maps a hash of a key to the node last found holding a key with
	// that hash. Aggregation streams are skewed, so most probes end here.
	// Entries never go stale while the tree lives: rotations relink nodes
	// but no operation moves a key from one node to another. Clear and
	// ClearReuse empty it.
	cache [cacheSlots]cacheEntry[V]
}

// cacheEntry carries the full hash so a probe whose slot holds some other
// key (most cache misses of a skewed stream: 20 K words share 2 K slots) is
// turned away without touching that key's node.
type cacheEntry[V any] struct {
	hash uint32
	node *node[V]
}

// newNode allocates a node from the chunk arena, cloning the key into the
// key slab so a long-lived tree never pins the (possibly much larger)
// string a caller's key was sliced from — mapper output keys are
// substrings of whole input lines. A string value is cloned next to its key
// for the same reason: the first value seen for a key is stored as passed,
// and on the pooled fetch path that is a view into a shared decode-arena
// chunk (see codec.Arena), which a key seen once would pin for good.
func (t *Tree[V]) newNode(key string, val V) *node[V] {
	if len(t.nodeChunk) == 0 {
		if t.curChunk != nil {
			t.usedChunks = append(t.usedChunks, t.curChunk)
		}
		if n := len(t.spareChunks); n > 0 {
			t.curChunk = t.spareChunks[n-1]
			t.spareChunks = t.spareChunks[:n-1]
		} else {
			t.curChunk = make([]node[V], nodeChunkLen)
		}
		t.nodeChunk = t.curChunk
	}
	h := &t.nodeChunk[0]
	t.nodeChunk = t.nodeChunk[1:]
	h.key = t.cloneKey(key)
	if s, ok := any(val).(string); ok {
		val = any(t.cloneKey(s)).(V)
	}
	h.val = val
	h.left, h.right = nil, nil
	h.color = red
	h.n = 1
	return h
}

// cloneKey copies key into the current key slab and returns a string view
// of the copy. The slabs are append-only while referenced — bytes are
// written exactly once, before the unsafe.String view is created, and
// slabs are only recycled by ClearReuse, whose contract is that no tree
// string escapes — so the no-mutation requirement of unsafe.String holds.
func (t *Tree[V]) cloneKey(key string) string {
	if len(key) == 0 {
		return ""
	}
	if len(key) > maxSlabKeyBytes {
		return strings.Clone(key)
	}
	if cap(t.keySlab)-len(t.keySlab) < len(key) {
		if t.keySlab != nil {
			t.usedSlabs = append(t.usedSlabs, t.keySlab)
		}
		if n := len(t.spareSlabs); n > 0 {
			t.keySlab = t.spareSlabs[n-1][:0]
			t.spareSlabs = t.spareSlabs[:n-1]
		} else {
			t.keySlab = make([]byte, 0, keySlabBytes)
		}
	}
	off := len(t.keySlab)
	t.keySlab = append(t.keySlab, key...)
	return unsafe.String(&t.keySlab[off], len(key))
}

// New creates a tree. sizeOf reports the accounted byte size of a value; a
// nil sizeOf counts values as zero bytes (keys and node overhead are always
// counted).
func New[V any](sizeOf func(V) int64) *Tree[V] {
	if sizeOf == nil {
		sizeOf = func(V) int64 { return 0 }
	}
	return &Tree[V]{sizeOf: sizeOf}
}

// Len returns the number of keys.
func (t *Tree[V]) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.n
}

// Bytes returns the accounted byte footprint of the tree.
func (t *Tree[V]) Bytes() int64 { return t.bytes }

// find returns the node holding key, or nil. It reads the hot-key cache,
// then descends from the root, and writes to no node. The nodes it passes
// are left in t.path, so that after a nil result add can link the new node
// and rebalance without a second descent.
func (t *Tree[V]) find(key string) *node[V] {
	h := hashKey(key)
	slot := &t.cache[h%cacheSlots]
	if x := slot.node; x != nil && slot.hash == h && x.key == key {
		return x
	}
	path := t.path[:0]
	x := t.root
	for x != nil {
		c := strings.Compare(key, x.key)
		if c == 0 {
			*slot = cacheEntry[V]{h, x}
			break
		}
		path = append(path, x)
		if c < 0 {
			x = x.left
		} else {
			x = x.right
		}
	}
	t.path = path
	return x
}

// hashKey is FNV-1a. At word length it costs what a call into hash/maphash
// does (6 ns for 9 bytes), and it is unseeded: the same keys share the same
// slots in every run, so a job's timing does not depend on a random seed.
func hashKey(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

// Get returns the value stored at key.
func (t *Tree[V]) Get(key string) (V, bool) {
	if x := t.find(key); x != nil {
		return x.val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value at key.
func (t *Tree[V]) Put(key string, val V) {
	if x := t.find(key); x != nil {
		t.set(x, val)
		return
	}
	t.add(key, val)
}

// Update is the read-modify-write primitive for running aggregates: an
// absent key stores val, a present key stores merge(old, val). Either way
// the tree is walked once for the lookup; a present key costs nothing more
// than the in-place swap.
func (t *Tree[V]) Update(key string, val V, merge func(old, val V) V) {
	if x := t.find(key); x != nil {
		t.set(x, merge(x.val, val))
		return
	}
	t.add(key, val)
}

// set replaces x's value in place, keeping the byte account.
func (t *Tree[V]) set(x *node[V], val V) {
	t.bytes += t.sizeOf(val) - t.sizeOf(x.val)
	x.val = val
}

// add inserts a key that find has just reported absent: the new node
// hangs off the last node of find's path, and the left-leaning red-black
// invariants and subtree sizes are restored bottom-up along that path — the
// only place the tree is ever restructured.
func (t *Tree[V]) add(key string, val V) {
	t.bytes += int64(len(key)) + t.sizeOf(val) + NodeOverheadBytes
	x := t.newNode(key, val)
	if n := len(t.path); n > 0 {
		leaf := t.path[n-1]
		if key < leaf.key {
			leaf.left = x
		} else {
			leaf.right = x
		}
		x = fixUp(leaf)
		// Above the leaf no compare is needed to know which way the descent
		// went: h still points at the path's next node, whatever rotations
		// have since made of the subtree below it.
		for i := n - 2; i >= 0; i-- {
			h := t.path[i]
			if h.left == t.path[i+1] {
				h.left = x
			} else {
				h.right = x
			}
			x = fixUp(h)
		}
	}
	x.color = black
	t.root = x
}

// fixUp restores the left-leaning red-black invariants and subtree size at
// h after an insertion below it, and returns the subtree's new root.
func fixUp[V any](h *node[V]) *node[V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	h.n = 1 + size(h.left) + size(h.right)
	return h
}

// Ascend visits entries in increasing key order until fn returns false.
func (t *Tree[V]) Ascend(fn func(key string, val V) bool) {
	ascend(t.root, fn)
}

func ascend[V any](x *node[V], fn func(string, V) bool) bool {
	if x == nil {
		return true
	}
	if !ascend(x.left, fn) {
		return false
	}
	if !fn(x.key, x.val) {
		return false
	}
	return ascend(x.right, fn)
}

// Clear drops all entries and releases the slab arenas to the garbage
// collector. Safe when strings obtained from the tree (keys, values) are
// still referenced elsewhere: slabs are dropped, never overwritten.
func (t *Tree[V]) Clear() {
	t.root = nil
	t.bytes = 0
	t.path = nil
	t.keySlab = nil
	t.usedSlabs = nil
	t.spareSlabs = nil
	t.nodeChunk = nil
	t.curChunk = nil
	t.usedChunks = nil
	t.spareChunks = nil
	clear(t.cache[:])
}

// ClearReuse drops all entries but keeps the slab arenas on an internal
// free list for the next fill — the right clear for fill/seal/clear spill
// cycles, where the tree is refilled to the same footprint over and over.
//
// Contract: the caller must guarantee that NO string obtained from the
// tree (a key passed to an Ascend callback, a stored value) is referenced
// after the call — recycled key slabs are overwritten by future inserts.
// The spill store qualifies: everything is encoded into the sealed run
// buffer before the clear.
func (t *Tree[V]) ClearReuse() {
	t.root = nil
	t.bytes = 0
	if t.keySlab != nil {
		t.spareSlabs = append(t.spareSlabs, t.keySlab[:0])
		t.keySlab = nil
	}
	for _, s := range t.usedSlabs {
		t.spareSlabs = append(t.spareSlabs, s[:0])
	}
	t.usedSlabs = nil
	if t.curChunk != nil {
		clear(t.curChunk) // drop stale key/value references
		t.spareChunks = append(t.spareChunks, t.curChunk)
		t.curChunk = nil
		t.nodeChunk = nil
	}
	for _, c := range t.usedChunks {
		clear(c)
		t.spareChunks = append(t.spareChunks, c)
	}
	t.usedChunks = nil
	clear(t.cache[:]) // recycled nodes and key slabs are about to be overwritten
}

// --- LLRB helpers ---------------------------------------------------------

func isRed[V any](x *node[V]) bool { return x != nil && x.color == red }

func size[V any](x *node[V]) int {
	if x == nil {
		return 0
	}
	return x.n
}

func rotateLeft[V any](h *node[V]) *node[V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	x.n = h.n
	h.n = 1 + size(h.left) + size(h.right)
	return x
}

func rotateRight[V any](h *node[V]) *node[V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	x.n = h.n
	h.n = 1 + size(h.left) + size(h.right)
	return x
}

func flipColors[V any](h *node[V]) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}
