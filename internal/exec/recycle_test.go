package exec

// Map tasks over the run exchange recycle their partition buffers: the
// RunSink hands a sealed final wave's slices to core's record-buffer free
// list, and the next map task draws its partitions from it.

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"blmr/internal/core"
	"blmr/internal/dfs"
	"blmr/internal/shuffle"
	"blmr/internal/sortx"
)

// runExchange builds a TCP-transport exchange for maps map tasks.
func runExchange(t *testing.T, maps, parts int) shuffle.Transport {
	t.Helper()
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	tr, err := shuffle.New(shuffle.TCP, shuffle.Config{Maps: maps, Parts: parts, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestMapRunsReusePartitionBuffers: the second of two identical map tasks
// through a RunSink allocates no partition buffer, because the first one's
// came back to the free list when its final wave was sealed. As in
// TestMapRunsPresizeFromProbe, what a task allocates for its partitions is
// measured against the same task over an empty split; here in bytes, since
// sealing a wave allocates too.
func TestMapRunsReusePartitionBuffers(t *testing.T) {
	const reducers, n, fan = 4, 20000, 4
	split := make([]core.Record, n)
	for i := range split {
		split[i] = core.Record{Key: strconv.Itoa(i), Value: "1"}
	}
	job := Job{Mapper: core.MapperFunc(func(k, v string, e core.Emitter) {
		for range fan {
			e.Emit(k, v)
		}
	})}
	opts := Options{Reducers: reducers, Mode: Pipelined}
	tr := runExchange(t, 3, reducers)
	allocated := func(m int, split []core.Record) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runMapRuns(job, opts, MapTask{Index: m, Split: split}, tr.MapSink(m)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(0, split)
	full, empty := allocated(1, split), allocated(2, split[:0])
	part := uint64(n*fan/reducers) * uint64(unsafe.Sizeof(core.Record{}))
	if full > empty && full-empty >= part {
		t.Errorf("the second map task allocated %d bytes more than an empty one; one partition's records take %d", full-empty, part)
	}
}

// finalParts is a MapSink that remembers the slices of every final wave it
// passes on.
type finalParts struct {
	shuffle.MapSink
	parts [][]core.Record
}

func (s *finalParts) PublishWave(parts [][]core.Record, sealed bool) error {
	if !sealed {
		s.parts = append(s.parts, parts...)
	}
	return s.MapSink.PublishWave(parts, sealed)
}

// TestCombinedBuffersRecycledZeroed: a combiner folds each partition into
// its own prefix and leaves records past the new length. The buffers a
// RunSink hands back must be zero across their full capacity, so a waiting
// buffer pins no string.
func TestCombinedBuffersRecycledZeroed(t *testing.T) {
	const reducers, n = 3, 5000
	split := make([]core.Record, n)
	for i := range split {
		split[i] = core.Record{Key: "k" + strconv.Itoa(i%50), Value: "1"}
	}
	job := Job{
		Mapper:   core.MapperFunc(func(k, v string, e core.Emitter) { e.Emit(k, v) }),
		Combiner: func(a, b string) string { return a + b },
	}
	opts := Options{Reducers: reducers, Mode: Pipelined}
	sink := &finalParts{MapSink: runExchange(t, 1, reducers).MapSink(0)}
	if _, err := runMapRuns(job, opts, MapTask{Split: split}, sink); err != nil {
		t.Fatal(err)
	}
	shortened := false
	for p, part := range sink.parts {
		shortened = shortened || len(part) < cap(part)
		for i, r := range part[:cap(part)] {
			if r != (core.Record{}) {
				t.Fatalf("partition %d's recycled buffer holds %v at %d (length %d, capacity %d)", p, r, i, len(part), cap(part))
			}
		}
	}
	if !shortened {
		t.Fatal("no combined partition was shorter than its buffer")
	}
}

// sortedRunsSource is a ReduceSource over in-memory sorted runs, rewound
// for every task that reads it.
type sortedRunsSource struct{ runs []*sortx.SliceRun }

func (s *sortedRunsSource) NextBatch() ([]core.Record, bool, error) { return nil, false, nil }
func (s *sortedRunsSource) Recycle([]core.Record)                   {}
func (s *sortedRunsSource) Close() error                            { return nil }
func (s *sortedRunsSource) Runs() ([]sortx.Run, error) {
	out := make([]sortx.Run, len(s.runs))
	for i, r := range s.runs {
		r.Rewind()
		out[i] = r
	}
	return out, nil
}

// TestBarrierReduceDrawsOutputChunks: a barrier reduce task collects its
// output in chunks from the record-buffer free list, so once a previous
// task's output has been handed back, a task writing 20 000 records
// allocates no more than the same task writing one record a group. As in
// TestMapRunsReusePartitionBuffers, what the output costs is measured in
// bytes against that baseline: the merge allocates too.
func TestBarrierReduceDrawsOutputChunks(t *testing.T) {
	const runs, perRun, keys = 4, 5000, 8
	src := &sortedRunsSource{}
	for range runs {
		recs := make([]core.Record, perRun)
		for i := range recs {
			recs[i] = core.Record{Key: "k" + strconv.Itoa(i*keys/perRun), Value: strconv.Itoa(i)}
		}
		src.runs = append(src.runs, sortx.NewSliceRun(recs))
	}
	task := func(everyValue bool) func() {
		job := Job{NewGroup: func() core.GroupReducer {
			return core.GroupReducerFunc(func(k string, vs []string, out core.Output) {
				if !everyValue {
					vs = vs[:1]
				}
				for _, v := range vs {
					out.Write(k, v)
				}
			})
		}}
		opts := Options{Mode: Barrier}
		opts.Normalize()
		want := keys
		if everyValue {
			want = runs * perRun
		}
		return func() {
			res, err := RunReduceTask(job, opts, ReduceTask{}, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Output.Len() != want {
				t.Fatalf("the task wrote %d records, want %d", res.Output.Len(), want)
			}
			res.Output.Recycle() // as mr.Assemble does
		}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 4 {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 4
	}
	for range 256 { // more than the free list holds: empty it, so the task's own chunks fill it
		core.TakeRecords(1)
	}
	full, small := task(true), task(false)
	full()
	small()
	fullBytes, smallBytes := allocated(full), allocated(small)
	chunk := uint64(256 * unsafe.Sizeof(core.Record{})) // the sink's first chunk
	if fullBytes > smallBytes && fullBytes-smallBytes >= chunk {
		t.Errorf("a warmed task writing %d records allocated %d bytes, %d more than one writing %d; one output chunk takes %d",
			runs*perRun, fullBytes, fullBytes-smallBytes, keys, chunk)
	}
}
