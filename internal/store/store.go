// Package store provides partial-result storage for barrier-less reducers
// (Section 5 of the paper). Three strategies are offered:
//
//   - InMemory: a hash-indexed table holding every partial result, sorted
//     by key once when emitted (fast, but O(keys..records) heap — can OOM,
//     Figure 5(a)).
//   - SpillMerge: the paper's customized "disk spill and merge" scheme —
//     when memory crosses a threshold the table is serialized key-sorted to
//     a spill file; at finalize all spill files plus the live table are
//     k-way merged, combining same-key partials with a user Merger (Figure
//     5(b)).
//   - KV: an off-the-shelf-style disk-spilling key/value store with an LRU
//     cache (the BerkeleyDB stand-in).
//
// All three expose the same Store interface so reducers are agnostic to the
// memory-management policy, and report their I/O through the same Hooks.
// A reducer writes a partial only by folding into it (Merge, MergeSum) and
// reads partials only by draining them (Emit). The KV store's per-record
// get-then-put stays behind its Merge.
package store

import "blmr/internal/core"

// entryOverheadBytes is what ApproxRecordBytes charges per record on top of
// its payload. It is the per-node figure of the red-black tree the stores
// used to hold, frozen so that spill trigger points and every reported and
// simulated byte count stay what they were (DESIGN.md §4, §6).
const entryOverheadBytes = 64

// ApproxRecordBytes is the framework's single per-buffered-record memory
// accounting rule: payload bytes plus a fixed per-entry overhead. The map
// tasks' spill triggers (exec.runMapRuns) use it for their flat record
// buffers too, so "SpillBytes of buffered data" means the same number of records
// whether the buffer is a store or a slice — spill triggering and memory
// reports stay consistent (the numbers examples print are directly
// comparable to the thresholds they were run with).
func ApproxRecordBytes(key, val string) int64 {
	return int64(len(key)) + int64(len(val)) + entryOverheadBytes
}

// Merger combines two partial results for the same key into one. It must be
// commutative and associative — the same requirement the paper places on
// the merge function ("often functionally the same as the combiner").
type Merger func(a, b string) string

// Store holds per-key partial results during barrier-less reduction.
// Implementations are single-owner (one reduce task), not concurrency-safe.
type Store interface {
	// Merge folds val into the partial result for key with m (the
	// read-modify-write cycle of a running aggregate, and the only way a
	// reducer writes a partial): absent keys store val. The in-memory and
	// spill stores do this in one probe and, for a present key, one
	// in-place swap; they copy a first-seen val, so they never pin the
	// buffer it was cut from. For SpillMerge the fold reaches only the
	// in-memory partial; spilled partials for the same key are reunited at
	// Emit by the store's Merger. The KV store keeps its off-the-shelf
	// get-then-put cost, which is the point of that strategy.
	Merge(key, val string, m Merger)
	// MergeSum is Merge(key, val, SumMerger): every accounted byte count
	// and Emit record is the same. The in-memory and spill stores keep a
	// key's running sum as a number from its second value on and format it
	// only when it is read — by Merge or a drain — so a fold allocates
	// nothing, however large the count.
	MergeSum(key, val string)
	// Len returns the number of keys currently reachable without a merge
	// (in-memory keys for SpillMerge, all keys otherwise).
	Len() int
	// MemBytes returns the accounted in-memory footprint of the partial
	// results themselves, charged against the reducer's heap budget.
	MemBytes() int64
	// ApproxBytes returns the store's total approximate heap footprint:
	// MemBytes plus transient machinery (spill encode scratch). Engines
	// compare this — not MemBytes — against memory budgets and report it in
	// examples, so triggering and reporting agree; the per-entry accounting
	// underneath is ApproxRecordBytes for every implementation.
	ApproxBytes() int64
	// SpilledBytes returns bytes written to spill storage so far.
	SpilledBytes() int64
	// Emit merges all partial results and writes one record per key, in
	// key order, to out. The store must not be used afterwards.
	Emit(out core.Output)
}

// Hooks observes a store's I/O so the simulator can charge virtual time for
// it. The stores call it with the real bytes they move; a nil Hooks
// observes nothing.
type Hooks interface {
	// Op is called once per KVStore get or put — two per Merge, one per
	// key read back at Emit: the off-the-shelf store's per-operation cost.
	// The other stores never call it.
	Op()
	// DiskWrite is called when bytes go to spill storage: a sealed spill
	// run, or a KV log append. A spill run counts its records' encoded
	// bytes (codec.RunEncoder.RawBytes), not its block framing: the
	// simulator scales these bytes up from small real runs, and framing,
	// at most 10 bytes per 32 KiB block of a run at scale, would scale up
	// with them into a cost no run at scale pays.
	DiskWrite(bytes int64)
	// DiskRead is called when spilled bytes are read back: a spill run at
	// the final merge (the bytes DiskWrite was charged), or a KV log entry.
	DiskRead(bytes int64)
}

// nopHooks is what a store built with nil Hooks calls.
type nopHooks struct{}

func (nopHooks) Op()             {}
func (nopHooks) DiskWrite(int64) {}
func (nopHooks) DiskRead(int64)  {}

// Kind names a memory-management strategy, used in configs and reports.
type Kind int

// Available strategies.
const (
	InMemory Kind = iota
	SpillMerge
	KV
)

var kindNames = [...]string{"in-memory", "spill-merge", "kvstore"}

// Bounded is the strategy a reduce task's store of kind k runs with when
// spillBytes (if > 0) bounds task memory: every in-memory store becomes a
// spill-merge store budgeted at spillBytes, and the KV store keeps its own
// cache management. Both engines build their stores, and validate that a
// spill-merge store has its Merger, by this one rule.
func (k Kind) Bounded(spillBytes int64) Kind {
	if spillBytes > 0 && k != KV {
		return SpillMerge
	}
	return k
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// MemStore keeps every partial result in memory (the unmanaged baseline
// that fails on Figure 5(a)).
type MemStore struct {
	t table
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Merge implements Store in a single probe.
func (m *MemStore) Merge(key, val string, mg Merger) { m.t.merge(key, val, mg) }

// MergeSum implements Store in a single probe.
func (m *MemStore) MergeSum(key, val string) { m.t.mergeSum(key, val) }

// Len implements Store.
func (m *MemStore) Len() int { return len(m.t.slots) }

// MemBytes implements Store.
func (m *MemStore) MemBytes() int64 { return m.t.bytes }

// ApproxBytes implements Store: the partial results are the whole footprint.
func (m *MemStore) ApproxBytes() int64 { return m.t.bytes }

// SpilledBytes implements Store.
func (m *MemStore) SpilledBytes() int64 { return 0 }

// Emit implements Store.
func (m *MemStore) Emit(out core.Output) { m.t.emit(out) }
