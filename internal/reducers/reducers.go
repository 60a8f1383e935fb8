// Package reducers implements the paper's seven classes of Reduce
// operations (Section 4, Table 1), each in two forms:
//
//   - a classic barrier-mode GroupReducer, which receives a key with all of
//     its values at once, in key-sorted order; and
//   - a barrier-less StreamReducer, which receives records one at a time in
//     arrival order and maintains per-key partial results in a store.Store.
//
// The pairs are semantically equivalent: for identical inputs they produce
// identical output multisets (the test suite verifies this per class), which
// is the paper's "correctness and completeness is not compromised" claim.
package reducers

import (
	"strconv"
	"strings"

	"blmr/internal/core"
	"blmr/internal/store"
)

// --- Identity (Section 4.1) -------------------------------------------------

// Identity passes records straight through: no sorting requirement, no
// partial results. Identical in both modes (e.g. distributed grep).
type Identity struct{}

// Reduce implements core.GroupReducer.
func (Identity) Reduce(key string, values []string, out core.Output) {
	for _, v := range values {
		out.Write(key, v)
	}
}

// Consume implements core.StreamReducer.
func (Identity) Consume(rec core.Record, out core.Output) { out.Write(rec.Key, rec.Value) }

// Finish implements core.StreamReducer.
func (Identity) Finish(core.Output) {}

// --- Sorting (Section 4.2) ---------------------------------------------------

// SortingGroup is the barrier-mode sort "reducer": the framework has already
// sorted by key, so it just writes each record out.
type SortingGroup struct{}

// Reduce implements core.GroupReducer.
func (SortingGroup) Reduce(key string, values []string, out core.Output) {
	for range values {
		out.Write(key, "")
	}
}

// SortingStream is the barrier-less sort: a per-key duplicate count is kept
// in the store (so duplicates don't consume memory, per Section 6.1.1), and
// keys are emitted count times, in order, at Finish.
type SortingStream struct {
	st store.Store
}

// NewSortingStream creates a barrier-less sorter over st. Use
// store.SumMerger as the store's spill merger.
func NewSortingStream(st store.Store) *SortingStream { return &SortingStream{st: st} }

// Consume implements core.StreamReducer: one store probe incrementing the
// key's duplicate count.
func (s *SortingStream) Consume(rec core.Record, out core.Output) {
	s.st.MergeSum(rec.Key, "1")
}

// Finish implements core.StreamReducer: emit each key count times.
func (s *SortingStream) Finish(out core.Output) {
	s.st.Emit(core.OutputFunc(func(key, val string) {
		n, _ := strconv.ParseInt(val, 10, 64)
		for i := int64(0); i < n; i++ {
			out.Write(key, "")
		}
	}))
}

// --- Aggregation (Section 4.3) -----------------------------------------------

// AggregationGroup folds all values of a key with a commutative combine
// function and emits the aggregate immediately (barrier mode).
type AggregationGroup struct {
	Combine store.Merger
}

// Reduce implements core.GroupReducer.
func (a AggregationGroup) Reduce(key string, values []string, out core.Output) {
	if len(values) == 1 {
		// Single-value groups skip the fold, so the retained value would
		// alias the merge input — on the pooled TCP fetch path, a view
		// into a shared 72KiB decode-arena chunk. Clone it: thousands of
		// hapax keys each pinning a chunk would hold the whole fetched
		// partition live for the lifetime of the output (see codec.Arena).
		out.Write(key, strings.Clone(values[0]))
		return
	}
	acc := a.Combine(values[0], values[1])
	for _, v := range values[2:] {
		acc = a.Combine(acc, v)
	}
	out.Write(key, acc)
}

// AggregationStream keeps a running sum per key in the store (barrier-less
// word count).
type AggregationStream struct {
	st store.Store
}

// NewAggregationStream creates a running-sum aggregator over st. Use
// store.SumMerger as the store's spill merger.
func NewAggregationStream(st store.Store) *AggregationStream {
	return &AggregationStream{st: st}
}

// Consume implements core.StreamReducer: the read-modify-update cycle, one
// store probe per record via MergeSum.
func (a *AggregationStream) Consume(rec core.Record, out core.Output) {
	a.st.MergeSum(rec.Key, rec.Value)
}

// Finish implements core.StreamReducer.
func (a *AggregationStream) Finish(out core.Output) { a.st.Emit(out) }
