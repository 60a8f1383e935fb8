package reducers

import (
	"sort"
	"strings"

	"blmr/internal/core"
	"blmr/internal/store"
)

// Selection (Section 4.4): keep the k values with the smallest metric per
// key (k-nearest-neighbors). Values must be order-preserving encoded so the
// metric is their string prefix — e.g. core.JoinValues(core.EncodeFloat64(d),
// payload); plain string comparison then orders by metric.

// SelectionGroup is the barrier-mode top-k: with all values present, sort
// and take the first k (the paper's secondary-sort idiom collapsed into the
// reducer, since our values embed the metric).
type SelectionGroup struct {
	K int
}

// Reduce implements core.GroupReducer.
func (s SelectionGroup) Reduce(key string, values []string, out core.Output) {
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	if len(sorted) > s.K {
		sorted = sorted[:s.K]
	}
	for _, v := range sorted {
		// Clone: top-k retains a sparse subset of the group's values, and
		// on the pooled TCP fetch path those are views into shared 72KiB
		// decode-arena chunks — keeping k short strings must not pin the
		// whole fetched partition (see codec.Arena). Dense retainers
		// (Identity) keep every value, so for them the chunks are all
		// live anyway and no clone is needed.
		out.Write(key, strings.Clone(v))
	}
}

// SelectionStream is the barrier-less top-k: a size-k ordered list per key
// lives in the store as a joined string; each arriving value is inserted in
// order and the largest entry evicted when the list exceeds k — the paper's
// "size-k ordered linked list".
type SelectionStream struct {
	st    store.Store
	merge store.Merger // SelectionMerger(k)
}

// NewSelectionStream creates a top-k selector over st. Use
// SelectionMerger(k) as the store's spill merger.
func NewSelectionStream(st store.Store, k int) *SelectionStream {
	if k <= 0 {
		panic("reducers: selection k must be positive")
	}
	return &SelectionStream{st: st, merge: SelectionMerger(k)}
}

// Consume implements core.StreamReducer: the value joins the key's list in
// one store fold, like AggregationStream's.
func (s *SelectionStream) Consume(rec core.Record, out core.Output) {
	s.st.Merge(rec.Key, core.JoinList(rec.Value), s.merge)
}

// Finish implements core.StreamReducer: unpack each key's list into
// individual output records, matching the barrier-mode format.
func (s *SelectionStream) Finish(out core.Output) {
	s.st.Emit(core.OutputFunc(func(key, joined string) {
		for _, v := range core.SplitList(joined) {
			out.Write(key, v)
		}
	}))
}

// SelectionMerger returns a spill merger that merges two top-k lists into
// one, preserving the k smallest entries overall.
func SelectionMerger(k int) store.Merger {
	return func(a, b string) string { return mergeLists(a, b, k, false) }
}
