// Package sortx provides the sorting machinery the MapReduce framework uses:
// stable in-memory record sort, grouping of sorted runs by key, map-side
// combining, and a k-way merge over sorted runs (the barrier shuffle's
// merge-sort and the spill store's merge phase both build on it).
package sortx

import (
	"cmp"
	"math"
	"math/bits"
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
		return load8(key)
	}
	var p uint64
	for i := 0; i < len(key); i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// load8 returns the first eight bytes of s as a big-endian integer.
func load8(s string) uint64 {
	return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
		uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
}

// windowPrefix is keyPrefix(key[from:]). A window shorter than eight bytes
// of a key that has eight is the key's last eight bytes shifted up, one load
// where keyPrefix loops over the bytes.
func windowPrefix(key string, from int) uint64 {
	switch {
	case len(key)-from >= 8:
		return load8(key[from:])
	case len(key) >= 8:
		return load8(key[len(key)-8:]) << (8 * (8 - (len(key) - from)))
	}
	return keyPrefix(key[from:])
}

// sortEntry stands in for one record while sorting. It holds no pointer, so
// moving entries costs no write barrier and the collector never scans them.
type sortEntry struct {
	prefix uint64 // keyPrefix of the key, or of its window past the common prefix on the radix path
	idx    int    // the record's position in the input
}

// insertionSortMax is the largest input ByKey sorts by insertion, directly
// on the records: below it the entry array costs more than it saves.
const insertionSortMax = 12

// radixSortMin is the smallest input whose entries are radix-sorted: below
// it the histogram and scatter passes cost more than the comparator sort's
// compares (BenchmarkByKeySizes).
const radixSortMin = 256

// Sorter is ByKey and Sorted with reusable scratch: the two entry arrays and
// the gather buffer grow to the largest slice sorted and are reused by every
// later call, so a warmed-up Sorter allocates nothing. The gather buffer
// keeps the last sorted slice's strings reachable until the next call or
// the Sorter's death; give a Sorter the lifetime of the data it sorts (one
// map task). Not safe for concurrent use.
type Sorter struct {
	entries []sortEntry
	spare   []sortEntry // the radix sort's second buffer
	gather  []core.Record
}

// ByKey stable-sorts recs by key in place and returns CompareCost(len(recs)).
//
// It sorts (prefix, index) entries, not records: a pass moves 16
// pointer-free bytes instead of a 32-byte record behind write barriers, and
// the order is key, then input index — the one a stable sort by key
// produces (compareSort and radixSort say why). The records are then moved
// once each, through the gather buffer.
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
// without moving them: only the entries are sorted, so the scratch is 32
// bytes a record (16 below radixSortMin) where ByKey's gather adds 32 more.
// recs must not change while the run is read, and the run is valid until s
// sorts again.
func (s *Sorter) Sorted(recs []core.Record) SliceRun {
	return SliceRun{recs: recs, order: s.sortEntries(recs)}
}

// sortEntries fills the entry array with one entry per record and sorts it
// into key order, input index breaking ties. Its scratch and the gather
// buffer grow, not make: a task's partition buffers creep up wave by wave,
// and amortised growth keeps that from reallocating each time.
func (s *Sorter) sortEntries(recs []core.Record) []sortEntry {
	n := len(recs)
	entries := slices.Grow(s.entries[:0], n)[:n]
	s.entries = entries
	if n < radixSortMin {
		for i := range recs {
			entries[i] = sortEntry{prefix: keyPrefix(recs[i].Key), idx: i}
		}
		compareSort(recs, entries)
		return entries
	}
	for i := range entries {
		entries[i].idx = i
	}
	s.spare = slices.Grow(s.spare[:0], n)[:n]
	if sorted := radixSort(recs, entries, s.spare); &sorted[0] != &entries[0] {
		s.entries, s.spare = s.spare, s.entries
	}
	return s.entries
}

// compareSort sorts es by prefix, then full key, then input index. That
// order is total — no two entries compare equal — so the unstable sort has
// exactly one result, the stable one. Where two prefixes differ, integer
// order is byte order, so the first step never contradicts the second.
func compareSort(recs []core.Record, es []sortEntry) {
	slices.SortFunc(es, func(a, b sortEntry) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(recs[a.idx].Key, recs[b.idx].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// radixSort sorts es, which must be in input-index order, into (key, index)
// order, using tmp (as long as es) as the second buffer. It returns
// whichever of the two holds the result.
//
// The sort key is an 8-byte window: keyPrefix of each key past the batch's
// longest common prefix, so no pass is spent on bytes every key shares.
// One pass counts all eight byte digits; a stable LSD scatter then runs once
// per digit that is not the same in every entry. Stability is what makes
// the order (window, index) with no comparator. Only where two windows are
// equal and the keys are not can that order be wrong; sortTies mends those.
func radixSort(recs []core.Record, es, tmp []sortEntry) []sortEntry {
	lcp := commonPrefix(recs, es)
	minLen, maxLen := len(recs[es[0].idx].Key), 0
	var counts [8][256]int
	for i := range es {
		key := recs[es[i].idx].Key
		minLen, maxLen = min(minLen, len(key)), max(maxLen, len(key))
		p := windowPrefix(key, lcp)
		es[i].prefix = p
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
	}
	for d := range counts {
		shift := 8 * d
		c := &counts[d]
		if c[byte(es[0].prefix>>shift)] == len(es) {
			continue // one value: the pass would not move anything
		}
		sum := 0
		for b, k := range c {
			c[b], sum = sum, sum+k
		}
		for _, e := range es {
			b := byte(e.prefix >> shift)
			tmp[c[b]] = e
			c[b]++
		}
		es, tmp = tmp, es
	}
	// Keys of one length that end inside the window are equal exactly
	// when their windows are.
	if minLen != maxLen || maxLen > lcp+8 {
		sortTies(recs, es, lcp+8)
	}
	return es
}

// commonPrefix returns the length of the longest prefix all keys of es
// share.
func commonPrefix(recs []core.Record, es []sortEntry) int {
	first := recs[es[0].idx].Key
	lcp, prefix := len(first), keyPrefix(first)
	for _, e := range es[1:] {
		key := recs[e.idx].Key
		lcp = min(lcp, len(key))
		if lcp <= 8 {
			// Both keys are real bytes up to lcp, so where their prefixes
			// first differ bounds the prefix they share.
			lcp = min(lcp, bits.LeadingZeros64(keyPrefix(key)^prefix)/8)
		} else if key[:lcp] != first[:lcp] {
			i := 0
			for key[i] == first[i] {
				i++
			}
			lcp = i
		}
		if lcp == 0 {
			break
		}
	}
	return lcp
}

// sortTies puts every run of equal windows in es — each in index order, as
// the stable scatter left it — into (key, index) order. end is where the
// window stops. A run whose keys have one length and end inside the window
// holds one key and is left alone; any other run is compared.
func sortTies(recs []core.Record, es []sortEntry, end int) {
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].prefix == es[lo].prefix {
			hi++
		}
		if run := es[lo:hi]; len(run) > 1 && !oneKey(recs, run, end) {
			compareSort(recs, run)
		}
		lo = hi
	}
}

// oneKey reports whether a run of equal windows ending at end holds one key:
// it does when its keys have one length and end inside the window.
func oneKey(recs []core.Record, run []sortEntry, end int) bool {
	length := len(recs[run[0].idx].Key)
	if length > end {
		return false
	}
	for _, e := range run[1:] {
		if len(recs[e.idx].Key) != length {
			return false
		}
	}
	return true
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

// mergeHead is one run's head record. prefix caches keyPrefix(rec.Key), so
// most comparisons never follow a key pointer; an exhausted run's head is
// done, with the largest prefix, and sorts after every record.
type mergeHead struct {
	rec    core.Record
	prefix uint64
	done   bool
}

var exhausted = mergeHead{prefix: math.MaxUint64, done: true}

// Merger merges any number of sorted runs into one globally key-sorted
// stream. Ties between runs are broken by run index, making the merge
// stable with respect to run order.
//
// It is a loser tree over run indices. Each run's head record stays in
// heads[run]; tree[0] holds the current winner and tree[1:k] the loser of
// each internal node, leaf run i sitting at position k+i. Replacing the
// winner's head replays one leaf-to-root path, one comparison per level,
// and moves only int32 run indices — where a binary heap compares twice a
// level and swaps a whole head record. Next allocates nothing per record
// merged, NextGroup nothing per group once its values buffer has grown to
// the largest group, and Reset nothing once the merger has seen as many
// runs.
type Merger struct {
	runs   []Run
	heads  []mergeHead
	tree   []int32
	values []string // NextGroup's reused result buffer
}

// NewMerger primes a merger with the given runs.
func NewMerger(runs []Run) *Merger {
	m := &Merger{}
	m.Reset(runs)
	return m
}

// Reset re-primes the merger over a new set of runs, reusing its storage.
func (m *Merger) Reset(runs []Run) {
	k := len(runs)
	m.runs = runs
	clear(m.heads) // a merge left undrained must not pin its heads' strings
	m.heads = slices.Grow(m.heads[:0], k)[:k]
	m.tree = slices.Grow(m.tree[:0], k)[:k]
	for i, r := range runs {
		if rec, ok := r.Next(); ok {
			m.heads[i] = mergeHead{rec: rec, prefix: keyPrefix(rec.Key)}
		} else {
			m.heads[i] = exhausted
		}
	}
	if k > 0 {
		m.tree[0] = m.build(1)
	}
}

// build fills the losers of the subtree at position p and returns its
// winner.
func (m *Merger) build(p int) int32 {
	k := len(m.heads)
	if p >= k {
		return int32(p - k)
	}
	l, r := m.build(2*p), m.build(2*p+1)
	if m.less(r, l) {
		l, r = r, l
	}
	m.tree[p] = r
	return l
}

// less orders runs a and b by their heads: key prefix, then exhaustion,
// then key, then run index (the earlier run wins ties).
func (m *Merger) less(a, b int32) bool {
	x, y := &m.heads[a], &m.heads[b]
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	if x.done != y.done {
		return y.done
	}
	if x.rec.Key != y.rec.Key {
		return x.rec.Key < y.rec.Key
	}
	return a < b
}

// Next returns the next record in global key order.
func (m *Merger) Next() (core.Record, bool) {
	if len(m.heads) == 0 {
		return core.Record{}, false
	}
	w := m.tree[0]
	h := &m.heads[w]
	if h.done {
		return core.Record{}, false
	}
	rec := h.rec
	if next, ok := m.runs[w].Next(); ok {
		h.rec, h.prefix = next, keyPrefix(next.Key)
	} else {
		*h = exhausted // releases the strings
	}
	for p := (int(w) + len(m.heads)) / 2; p > 0; p /= 2 {
		if l := m.tree[p]; m.less(l, w) {
			m.tree[p], w = w, l
		}
	}
	m.tree[0] = w
	return rec, true
}

// NextGroup returns the next key and all its values across all runs. The
// values slice is the merger's own buffer, overwritten by the next call:
// a caller may keep the strings, not the slice (core.GroupReducer's rule).
func (m *Merger) NextGroup() (key string, values []string, ok bool) {
	if len(m.heads) == 0 || m.heads[m.tree[0]].done {
		return "", nil, false
	}
	h := &m.heads[m.tree[0]]
	key, prefix := h.rec.Key, h.prefix
	values = m.values[:0]
	for {
		rec, _ := m.Next()
		values = append(values, rec.Value)
		// The cached prefix settles most group ends without reading a key.
		h = &m.heads[m.tree[0]]
		if h.prefix != prefix || h.done || h.rec.Key != key {
			break
		}
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
