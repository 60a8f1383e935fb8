// Package sortx provides the sorting machinery the MapReduce framework uses:
// stable in-memory record sort, grouping of sorted runs by key, map-side
// combining, and a k-way merge over sorted runs (the barrier shuffle's
// merge-sort and the spill store's merge phase both build on it).
package sortx

import (
	"cmp"
	"slices"
	"strings"

	"blmr/internal/core"
)

// ByKey stable-sorts records by key in place and returns the number of key
// comparisons a merge sort would have performed (n log2 n), which the
// simulator charges as CPU work. A caller sorting many slices keeps one
// Sorter instead, so they share its scratch memory.
func ByKey(recs []core.Record) int64 {
	var s Sorter
	return s.ByKey(recs)
}

// keyPrefix returns the first eight bytes of key as a big-endian integer,
// zero-padded on the right: integer order on prefixes agrees with byte order
// on keys wherever the prefixes differ.
func keyPrefix(key string) uint64 {
	if len(key) >= 8 {
		return uint64(key[7]) | uint64(key[6])<<8 | uint64(key[5])<<16 | uint64(key[4])<<24 |
			uint64(key[3])<<32 | uint64(key[2])<<40 | uint64(key[1])<<48 | uint64(key[0])<<56
	}
	var p uint64
	for i := 0; i < len(key); i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// sortEntry stands in for one record while sorting. It holds no pointer, so
// moving entries costs no write barrier and the collector never scans them.
type sortEntry struct {
	prefix uint64 // keyPrefix of the record's key
	idx    int    // the record's position in the input
}

// insertionSortMax is the largest input ByKey sorts by insertion, directly
// on the records: below it the entry array costs more than it saves.
const insertionSortMax = 12

// Sorter is ByKey and Sorted with reusable scratch: the entry array and the
// gather buffer grow to the largest slice sorted and are reused by every
// later call, so a warmed-up Sorter allocates nothing. The gather buffer
// keeps the last sorted slice's strings reachable until the next call or
// the Sorter's death; give a Sorter the lifetime of the data it sorts (one
// map task). Not safe for concurrent use.
type Sorter struct {
	entries []sortEntry
	gather  []core.Record
}

// ByKey stable-sorts recs by key in place and returns CompareCost(len(recs)).
//
// It sorts (prefix, index) entries, not records: most comparisons are one
// integer compare on data that sits in the entry itself, and a swap moves 16
// pointer-free bytes instead of a 32-byte record behind write barriers. Equal
// prefixes fall back to the full keys, equal keys to the input index. That
// order is total — no two entries compare equal — so the unstable sort has
// exactly one result, the one a stable sort by key produces. The records
// are then moved once each, through the gather buffer.
func (s *Sorter) ByKey(recs []core.Record) int64 {
	n := len(recs)
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && recs[j].Key < recs[j-1].Key; j-- {
				recs[j], recs[j-1] = recs[j-1], recs[j]
			}
		}
		return CompareCost(n)
	}
	s.gather = slices.Grow(s.gather[:0], n)[:n]
	for i, e := range s.sortEntries(recs) {
		s.gather[i] = recs[e.idx]
	}
	copy(recs, s.gather)
	return CompareCost(n)
}

// Sorted returns a run over recs in the order ByKey would leave them in,
// without moving them: only the entry array is sorted, so the scratch is 16
// bytes a record where ByKey's gather adds 32 more. recs must not change
// while the run is read, and the run is valid until s sorts again.
func (s *Sorter) Sorted(recs []core.Record) SliceRun {
	return SliceRun{recs: recs, order: s.sortEntries(recs)}
}

// sortEntries fills the entry array with one entry per record and sorts it
// into key order, input index breaking ties. Its scratch and the gather
// buffer grow, not make: a task's partition buffers creep up wave by wave,
// and amortised growth keeps that from reallocating each time.
func (s *Sorter) sortEntries(recs []core.Record) []sortEntry {
	entries := slices.Grow(s.entries[:0], len(recs))[:len(recs)]
	s.entries = entries
	for i := range recs {
		entries[i] = sortEntry{prefix: keyPrefix(recs[i].Key), idx: i}
	}
	slices.SortFunc(entries, func(a, b sortEntry) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(recs[a.idx].Key, recs[b.idx].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return entries
}

// CompareCost returns the nominal comparison count for sorting n records.
func CompareCost(n int) int64 {
	if n < 2 {
		return 0
	}
	cost := int64(0)
	for m := n; m > 1; m >>= 1 {
		cost += int64(n)
	}
	return cost
}

// Group invokes fn once per distinct key of a key-sorted slice, passing all
// values for that key in encounter order; the values slice is reused for the
// next group (core.GroupReducer's rule). It panics if the input is not
// sorted (a framework invariant violation, not a user error).
func Group(recs []core.Record, fn func(key string, values []string)) {
	var values []string
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Key == recs[i].Key {
			j++
		}
		if j < len(recs) && recs[j].Key < recs[i].Key {
			panic("sortx: Group input not sorted")
		}
		values = values[:0]
		for _, r := range recs[i:j] {
			values = append(values, r.Value)
		}
		fn(recs[i].Key, values)
		i = j
	}
}

// Combine key-sorts recs in place and folds same-key neighbours left to
// right with merge, returning the combined prefix of the input slice (the
// result is never a new slice; the sort's scratch is, unless a Sorter
// supplies it). It is the map-side combiner primitive: merge must be
// commutative and associative, like a store.Merger.
func Combine(recs []core.Record, merge func(a, b string) string) []core.Record {
	var s Sorter
	return s.Combine(recs, merge)
}

// Combine is the package-level Combine sorting with s's scratch.
func (s *Sorter) Combine(recs []core.Record, merge func(a, b string) string) []core.Record {
	if len(recs) < 2 {
		return recs
	}
	s.ByKey(recs)
	out := recs[:1]
	for _, r := range recs[1:] {
		if last := &out[len(out)-1]; r.Key == last.Key {
			last.Value = merge(last.Value, r.Value)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// Run is a sorted sequence of records consumed incrementally.
type Run interface {
	// Next returns the next record; ok is false when the run is exhausted.
	Next() (core.Record, bool)
}

// Source is a Run that can fail mid-stream — the contract of disk-backed
// spill runs, whose reads can hit I/O errors or truncated files. A failed
// Source reports ok=false from Next (indistinguishable from exhaustion to
// the merge loop) and surfaces the cause through Err. Merge drivers must
// check Merger.Err after draining a merge that includes Sources.
type Source interface {
	Run
	// Err returns the error that ended the stream early, or nil.
	Err() error
}

// SliceRun adapts a pre-sorted slice to the Run interface, or an unsorted
// one read through the order Sorter.Sorted made for it.
type SliceRun struct {
	recs  []core.Record
	order []sortEntry // nil: recs is sorted already
	pos   int
}

// NewSliceRun wraps a key-sorted slice.
func NewSliceRun(recs []core.Record) *SliceRun { return &SliceRun{recs: recs} }

// Next implements Run.
func (s *SliceRun) Next() (core.Record, bool) {
	if s.pos >= len(s.recs) {
		return core.Record{}, false
	}
	i := s.pos
	if s.order != nil {
		i = s.order[i].idx
	}
	s.pos++
	return s.recs[i], true
}

// Rewind resets the run to its first record (so a merger can be Reset over
// the same backing slices without reallocating).
func (s *SliceRun) Rewind() { s.pos = 0 }

// mergeEntry is one run's head record in the merge heap. prefix caches
// keyPrefix(rec.Key), so most heap comparisons never follow a key pointer.
type mergeEntry struct {
	rec    core.Record
	prefix uint64
	src    int
}

// Merger merges any number of sorted runs into one globally key-sorted
// stream. Ties between runs are broken by run index, making the merge
// stable with respect to run order.
//
// The heap is a plain slice of mergeEntry with hand-rolled sift-down:
// unlike container/heap there is no interface boxing, so Next performs zero
// allocations per record merged, and NextGroup none per group once its
// values buffer has grown to the largest group.
type Merger struct {
	runs    []Run
	entries []mergeEntry
	values  []string // NextGroup's reused result buffer
	// Comparisons counts heap comparisons performed, for CPU cost models.
	Comparisons int64
}

// NewMerger primes a merger with the given runs.
func NewMerger(runs []Run) *Merger {
	m := &Merger{}
	m.Reset(runs)
	return m
}

// Reset re-primes the merger over a new set of runs, reusing the heap's
// backing storage (no allocation when the run count does not grow).
func (m *Merger) Reset(runs []Run) {
	m.runs = runs
	m.entries = m.entries[:0]
	m.Comparisons = 0
	for i, r := range runs {
		if rec, ok := r.Next(); ok {
			m.entries = append(m.entries, mergeEntry{rec: rec, prefix: keyPrefix(rec.Key), src: i})
		}
	}
	for i := len(m.entries)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *Merger) less(i, j int) bool {
	a, b := &m.entries[i], &m.entries[j]
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	if a.rec.Key != b.rec.Key {
		return a.rec.Key < b.rec.Key
	}
	return a.src < b.src // stable across runs: earlier run wins ties
}

func (m *Merger) siftDown(i int) {
	n := len(m.entries)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && m.less(r, c) {
			c = r
		}
		if !m.less(c, i) {
			return
		}
		m.entries[i], m.entries[c] = m.entries[c], m.entries[i]
		i = c
	}
}

// Next returns the next record in global key order.
func (m *Merger) Next() (core.Record, bool) {
	if len(m.entries) == 0 {
		return core.Record{}, false
	}
	e := m.entries[0]
	if rec, ok := m.runs[e.src].Next(); ok {
		m.entries[0].rec, m.entries[0].prefix = rec, keyPrefix(rec.Key)
		m.siftDown(0)
	} else {
		n := len(m.entries) - 1
		m.entries[0] = m.entries[n]
		m.entries[n] = mergeEntry{} // release the strings
		m.entries = m.entries[:n]
		m.siftDown(0)
	}
	m.Comparisons += int64(bits(len(m.entries)))
	return e.rec, true
}

// NextGroup returns the next key and all its values across all runs. The
// values slice is the merger's own buffer, overwritten by the next call:
// a caller may keep the strings, not the slice (core.GroupReducer's rule).
func (m *Merger) NextGroup() (key string, values []string, ok bool) {
	rec, ok := m.Next()
	if !ok {
		return "", nil, false
	}
	key = rec.Key
	values = append(m.values[:0], rec.Value)
	for len(m.entries) > 0 && m.entries[0].rec.Key == key {
		rec, _ = m.Next()
		values = append(values, rec.Value)
	}
	m.values = values
	return key, values, true
}

// Err returns the first deferred error of any merged run that implements
// Source (disk-backed runs). A non-nil Err means the merged stream ended
// early and its output is incomplete.
func (m *Merger) Err() error {
	for _, r := range m.runs {
		if s, ok := r.(Source); ok {
			if err := s.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Drain returns all remaining records (for tests and small merges).
func (m *Merger) Drain() []core.Record {
	var out []core.Record
	for {
		r, ok := m.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func bits(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
