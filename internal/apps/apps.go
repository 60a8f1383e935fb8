// Package apps implements the paper's benchmark applications — one per
// Reduce class of Table 1 — in both barrier and barrier-less forms:
//
//	Distributed Grep   (Identity)
//	Sort               (Sorting)
//	WordCount          (Aggregation)
//	k-Nearest Neighbor (Selection)
//	Last.fm listens    (Post-reduction processing)
//	Genetic Algorithm  (Cross-key operations)
//	Black-Scholes      (Single reducer aggregation)
//
// Each App bundles the mapper, both reducer factories and the spill merger,
// so engines and experiments can treat applications uniformly.
package apps

import (
	"math/bits"
	"strings"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/reducers"
	"blmr/internal/store"
)

// App is a runnable MapReduce application in both execution modes: the
// engines' own job type, so an App runs on any of them as it is.
type App = exec.Job

// Grep returns the distributed-grep app: lines containing pattern pass
// through unchanged (Identity class — byte-identical in both modes).
func Grep(pattern string) App {
	return App{
		Name:  "grep",
		Class: core.ClassIdentity,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			if strings.Contains(value, pattern) {
				emit.Emit(key, value)
			}
		}),
		NewGroup:  func() core.GroupReducer { return reducers.Identity{} },
		NewStream: func(store.Store) core.StreamReducer { return reducers.Identity{} },
		Merger:    func(a, b string) string { return a }, // never invoked: unique keys
	}
}

// Sort returns the sort benchmark: the mapper is the identity (keys are
// already order-preserving encodings); the barrier version lets the
// framework sort, the barrier-less version counts duplicates in the store
// and replays them in key order at the end (Section 6.1.1).
func Sort() App {
	return App{
		Name:  "sort",
		Class: core.ClassSorting,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			emit.Emit(key, value)
		}),
		NewGroup: func() core.GroupReducer { return reducers.SortingGroup{} },
		NewStream: func(st store.Store) core.StreamReducer {
			return reducers.NewSortingStream(st)
		},
		Merger: store.SumMerger,
	}
}

// WordCount returns the canonical aggregation app (Algorithms 1 and 2 of
// the paper).
func WordCount() App {
	return App{
		Name:  "wordcount",
		Class: core.ClassAggregation,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			// Scan fields in place: emitting substrings avoids the
			// per-line []string that strings.Fields would allocate.
			for i := 0; i < len(value); {
				for i < len(value) && asciiSpace[value[i]] {
					i++
				}
				j := wordEnd(value, i)
				if j > i {
					emit.Emit(value[i:j], "1")
				}
				i = j
			}
		}),
		NewGroup: func() core.GroupReducer {
			return reducers.AggregationGroup{Combine: store.SumMerger}
		},
		NewStream: func(st store.Store) core.StreamReducer {
			return reducers.NewAggregationStream(st)
		},
		Merger: store.SumMerger,
	}
}

// asciiSpace marks ASCII whitespace (the corpus generators only emit
// single spaces; tabs and newlines are accepted for robustness).
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// wordEnd returns the index of the first ASCII whitespace byte in s at or
// after i, or len(s). It reads 8 bytes at a time: (x - 0x21…21) &^ x & highs
// flags every byte below 0x21, which covers all of asciiSpace, and never a
// byte with its top bit set. A borrow out of a flagged byte can flag the
// byte above it falsely, but never hide a byte below 0x21, so the lowest
// flag is exact and every flag is checked against the table: a control
// byte that is not a space, or a false flag, only moves on to the next one.
// The tail under 8 bytes is scanned byte by byte.
func wordEnd(s string, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		x := core.Load64(s, i)
		for m := (x - 0x21*ones) &^ x & highs; m != 0; m &= m - 1 {
			if j := i + bits.TrailingZeros64(m)>>3; asciiSpace[s[j]] {
				return j
			}
		}
	}
	for i < len(s) && !asciiSpace[s[i]] {
		i++
	}
	return i
}

// KNN returns the k-nearest-neighbors app (Section 4.4): each training
// record is compared against every experimental value; per experimental
// value, the k nearest training values survive. experimental is captured by
// the mapper closure (distributed via the job jar in Hadoop terms).
func KNN(k int, experimental []uint64) App {
	exp := append([]uint64(nil), experimental...)
	return App{
		Name:  "knn",
		Class: core.ClassSelection,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			train := core.DecodeUint64(value)
			for _, ev := range exp {
				var dist uint64
				if train > ev {
					dist = train - ev
				} else {
					dist = ev - train
				}
				emit.Emit(core.EncodeUint64(ev),
					core.JoinValues(core.EncodeUint64(dist), core.EncodeUint64(train)))
			}
		}),
		NewGroup: func() core.GroupReducer { return reducers.SelectionGroup{K: k} },
		NewStream: func(st store.Store) core.StreamReducer {
			return reducers.NewSelectionStream(st, k)
		},
		Merger: reducers.SelectionMerger(k),
	}
}

// LastFM returns the unique-listens app (Section 4.5): count distinct users
// per track.
func LastFM() App {
	return App{
		Name:  "lastfm",
		Class: core.ClassPostReduction,
		Mapper: core.MapperFunc(func(key, value string, emit core.Emitter) {
			emit.Emit(core.SplitPair(value)) // (track, user), views into value
		}),
		NewGroup: func() core.GroupReducer { return reducers.PostReductionGroup{} },
		NewStream: func(st store.Store) core.StreamReducer {
			return reducers.NewPostReductionStream(st)
		},
		Merger: reducers.SetUnionMerger,
	}
}
