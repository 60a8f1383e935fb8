package reducers

import (
	"math"
	"strconv"

	"blmr/internal/core"
	"blmr/internal/store"
)

// Post-reduction processing (Section 4.5): values for a key are first
// collected into a temporary structure (here: a duplicate-free set), and a
// post-processing step computes the final output (here: the set's
// cardinality) — the Last.fm unique-listens computation.

// PostReductionGroup is the barrier-mode form: all values for the key are
// present, so dedupe and count directly.
type PostReductionGroup struct{}

// Reduce implements core.GroupReducer.
func (PostReductionGroup) Reduce(key string, values []string, out core.Output) {
	set := make(map[string]bool, len(values))
	for _, v := range values {
		set[v] = true
	}
	out.Write(key, strconv.Itoa(len(set)))
}

// PostReductionStream maintains a per-key set in the store as a sorted
// joined string; Finish counts each set. Partial results grow with the
// number of distinct values — O(records) worst case, the paper's motivating
// class for memory management.
type PostReductionStream struct {
	st store.Store
}

// NewPostReductionStream creates a unique-value counter over st. Use
// SetUnionMerger as the store's spill merger.
func NewPostReductionStream(st store.Store) *PostReductionStream {
	return &PostReductionStream{st: st}
}

// Consume implements core.StreamReducer: the value joins the key's set in
// one store fold, like AggregationStream's.
func (p *PostReductionStream) Consume(rec core.Record, out core.Output) {
	p.st.Merge(rec.Key, core.JoinList(rec.Value), SetUnionMerger)
}

// Finish implements core.StreamReducer: post-process each set to its count.
func (p *PostReductionStream) Finish(out core.Output) {
	p.st.Emit(core.OutputFunc(func(key, joined string) {
		out.Write(key, strconv.Itoa(len(core.SplitList(joined))))
	}))
}

// SetUnionMerger merges two sorted duplicate-free sets into one.
func SetUnionMerger(a, b string) string { return mergeLists(a, b, math.MaxInt, true) }
