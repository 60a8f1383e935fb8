package core

import (
	"sync"
	"unsafe"
)

// The record-buffer free list: record header slices that a task is done
// with, kept for the next task of the process instead of left to the
// garbage collector. Map tasks draw their partition buffers from it
// (NewPartitionedEmitter, Extrapolate), the run exchange hands a map task's
// final wave back once it is sealed to disk, and the multi-process worker
// decodes each map task's split into a buffer from it. Reduce tasks collect
// their output in chunks from it (RecordSink), which come back once the
// output is assembled (mr.Assemble) or encoded onto the wire (a worker's
// reduce reply). Only the headers are
// recycled: the strings a recycled buffer held may still be kept by whoever
// received them (a mapper keeps its input strings, a reducer the keys it
// was given), so a buffer is zeroed across its full capacity on the way in
// and pins no string while it waits.
//
// The list is process-wide, like a sync.Pool, and bounded by the two
// constants below. sync.Pool itself does not fit: it empties itself over
// two collections and reallocates its per-P arrays after each, so a
// collection between two tasks costs them their buffers and allocates
// besides. The bounds hold one sort_tcp_delta job's reducer output (1 M
// records in 8192-record chunks) besides the map side's buffers; at half
// of each, half of that output was allocated afresh every job, and the
// benchmark's peak RSS read the same at both sizes (DESIGN §7).
const (
	freeRecordBufs  = 128      // buffers held at most
	freeRecordBytes = 32 << 20 // record-header bytes held at most
)

type recordFreeList struct {
	mu    sync.Mutex
	bufs  [][]Record // each empty, zeroed to its capacity
	bytes int        // recordBytes of the capacities in bufs
}

var recordFree = recordFreeList{bufs: make([][]Record, 0, freeRecordBufs)}

// recordBytes is the size of n record headers.
func recordBytes(n int) int { return n * int(unsafe.Sizeof(Record{})) }

// TakeRecords returns an empty record buffer of capacity at least n: the
// smallest one the free list holds that fits, or a new one.
func TakeRecords(n int) []Record {
	f := &recordFree
	f.mu.Lock()
	best := -1
	for i, b := range f.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(f.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		f.mu.Unlock()
		return make([]Record, 0, n)
	}
	b := f.bufs[best]
	last := len(f.bufs) - 1
	f.bufs[best] = f.bufs[last]
	f.bufs[last] = nil
	f.bufs = f.bufs[:last]
	f.bytes -= recordBytes(cap(b))
	f.mu.Unlock()
	return b
}

// RecycleRecords hands buf to the free list; the caller must not touch it
// again, nor any slice sharing its array. It is zeroed across its whole
// capacity first, since a caller may have shortened it in place (a
// combiner folds a run into its own prefix) and left records past its
// length. A buffer that would take the list past its bounds is dropped.
func RecycleRecords(buf []Record) {
	c := cap(buf)
	if c == 0 || recordBytes(c) > freeRecordBytes {
		return
	}
	buf = buf[:c]
	clear(buf)
	f := &recordFree
	f.mu.Lock()
	if len(f.bufs) < freeRecordBufs && f.bytes+recordBytes(c) <= freeRecordBytes {
		f.bufs = append(f.bufs, buf[:0])
		f.bytes += recordBytes(c)
	}
	f.mu.Unlock()
}
