package mr

import (
	"strconv"
	"testing"
	"unsafe"

	"blmr/internal/core"
	"blmr/internal/exec"
)

// partitionSizes are reduce-output sizes either side of the sink's chunk
// boundaries (its first chunk holds 256 records, its largest 8192), plus
// none, one and many chunks' worth.
var partitionSizes = []int{0, 1, 255, 256, 257, 8191, 8192, 8193, 5*8192 + 17}

// TestAssembleChunks: partitions collected through RecordSink assemble into
// exactly the records written, in partition order, into an output of
// exactly their number; Assemble consumes the summary's outputs and hands
// their chunks to the free list.
func TestAssembleChunks(t *testing.T) {
	for range 256 { // more than the free list holds: empty it, so only chunks come back
		core.TakeRecords(1)
	}
	sum := &exec.Summary{Reduces: make([]exec.ReduceResult, len(partitionSizes))}
	var want []core.Record
	arrays := make(map[*core.Record]bool)
	for p, n := range partitionSizes {
		sink := core.NewRecordSink()
		for i := range n {
			rec := core.Record{Key: "p" + strconv.Itoa(p), Value: strconv.Itoa(i)}
			sink.Write(rec.Key, rec.Value)
			want = append(want, rec)
		}
		sum.Reduces[p].Output = sink.Chunks()
		for _, ch := range sum.Reduces[p].Output {
			arrays[unsafe.SliceData(ch)] = true
		}
	}
	res := Assemble(sum)
	if len(res.Output) != len(want) || cap(res.Output) != len(want) {
		t.Fatalf("assembled %d records in a buffer of %d, want exactly %d", len(res.Output), cap(res.Output), len(want))
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("record %d is %v, want %v", i, res.Output[i], want[i])
		}
	}
	for p, rr := range sum.Reduces {
		if rr.Output != nil {
			t.Fatalf("partition %d's output is still in the summary after Assemble", p)
		}
	}
	if buf := core.TakeRecords(1); !arrays[unsafe.SliceData(buf)] {
		t.Fatalf("the free list gave a buffer of capacity %d that was no output chunk", cap(buf))
	}
}
