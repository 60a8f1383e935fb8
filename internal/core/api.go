package core

// Emitter receives intermediate records from a Mapper.
type Emitter interface {
	Emit(key, value string)
}

// Output receives final records from a Reducer.
type Output interface {
	Write(key, value string)
}

// Mapper transforms one input record into zero or more intermediate records.
// Implementations must be safe for concurrent use by multiple map tasks or
// provide a Factory (see MapperFactory) so each task gets its own instance.
type Mapper interface {
	Map(key, value string, emit Emitter)
}

// GroupReducer is the classic barrier-mode contract: called once per key
// with every value for that key, in key-sorted order.
//
// The values slice belongs to the caller and is valid only until Reduce
// returns: the merge refills one buffer for every group. A reducer may keep
// the strings in it (they are immutable) but must copy the slice itself if
// it needs the group afterwards, as SelectionGroup does before sorting it.
type GroupReducer interface {
	Reduce(key string, values []string, out Output)
}

// StreamReducer is the barrier-less contract: records arrive one at a time,
// in arrival (not key) order, possibly interleaved across keys. The reducer
// maintains partial results itself and emits them from Finish.
//
// This mirrors the paper's modified run() function: the framework calls
// Consume for every record as the pipelined shuffle delivers it, then Finish
// exactly once after the last record.
type StreamReducer interface {
	Consume(rec Record, out Output)
	Finish(out Output)
}

// Cleanup is optionally implemented by GroupReducers that keep state across
// keys (cross-key windows, single-reducer aggregations). The barrier engine
// calls Cleanup once per reduce task after the last key, mirroring Hadoop's
// Reducer.cleanup().
type Cleanup interface {
	Cleanup(out Output)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key, value string, emit Emitter)

// Map implements Mapper.
func (f MapperFunc) Map(key, value string, emit Emitter) { f(key, value, emit) }

// GroupReducerFunc adapts a function to the GroupReducer interface.
type GroupReducerFunc func(key string, values []string, out Output)

// Reduce implements GroupReducer.
func (f GroupReducerFunc) Reduce(key string, values []string, out Output) { f(key, values, out) }

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(key, value string)

// Emit implements Emitter.
func (f EmitterFunc) Emit(key, value string) { f(key, value) }

// OutputFunc adapts a function to the Output interface.
type OutputFunc func(key, value string)

// Write implements Output.
func (f OutputFunc) Write(key, value string) { f(key, value) }

// Partition assigns a key to one of n reduce partitions using the same
// stable hash everywhere in the framework (FNV-1a).
func Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Class is the paper's classification of Reduce operations (Table 1).
type Class int

// The seven Reduce-operation classes from Section 4 of the paper.
const (
	ClassIdentity Class = iota
	ClassSorting
	ClassAggregation
	ClassSelection
	ClassPostReduction
	ClassCrossKey
	ClassSingleReducer
)

var classNames = [...]string{
	"Identity",
	"Sorting",
	"Aggregation",
	"Selection",
	"Post-reduction processing",
	"Cross-key operations",
	"Single Reducer Aggregation",
}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return "Unknown"
	}
	return classNames[c]
}

// SortRequired reports whether the class needs key-sorted output
// (Table 1's "Key sort required" column).
func (c Class) SortRequired() bool { return c == ClassSorting }

// PartialResultSize describes the asymptotic partial-result memory per
// reducer in the barrier-less mode (Table 1's last column).
func (c Class) PartialResultSize() string {
	switch c {
	case ClassIdentity, ClassSingleReducer:
		return "O(1)"
	case ClassSorting, ClassPostReduction:
		return "O(records)"
	case ClassAggregation:
		return "O(keys)"
	case ClassSelection:
		return "O(k * keys)"
	case ClassCrossKey:
		return "O(window_size)"
	}
	return "?"
}
