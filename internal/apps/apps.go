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
				for i < len(value) && asciiSpace(value[i]) {
					i++
				}
				j := i
				for j < len(value) && !asciiSpace(value[j]) {
					j++
				}
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

// asciiSpace reports whether c is ASCII whitespace (the corpus generators
// only emit single spaces; tabs and newlines are accepted for robustness).
func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
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
			parts := core.SplitValues(value)
			emit.Emit(parts[0], parts[1]) // (track, user)
		}),
		NewGroup: func() core.GroupReducer { return reducers.PostReductionGroup{} },
		NewStream: func(st store.Store) core.StreamReducer {
			return reducers.NewPostReductionStream(st)
		},
		Merger: reducers.SetUnionMerger,
	}
}
