package core

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// emptyFreeList drops everything the record-buffer free list holds.
func emptyFreeList() {
	recordFree.mu.Lock()
	clear(recordFree.bufs)
	recordFree.bufs = recordFree.bufs[:0]
	recordFree.bytes = 0
	recordFree.mu.Unlock()
}

// TestRecordFreeList: a recycled buffer comes back zeroed across its whole
// capacity, TakeRecords picks the smallest held buffer that fits, and the
// list keeps at most freeRecordBufs buffers and freeRecordBytes bytes.
func TestRecordFreeList(t *testing.T) {
	emptyFreeList()
	defer emptyFreeList()

	buf := make([]Record, 100)
	for i := range buf {
		buf[i] = Record{Key: "k", Value: "v"}
	}
	RecycleRecords(buf[:10]) // shortened in place, as a combiner leaves it
	got := TakeRecords(50)
	if unsafe.SliceData(got) != unsafe.SliceData(buf) || len(got) != 0 {
		t.Fatalf("took a buffer of length %d, capacity %d, want the recycled one, empty", len(got), cap(got))
	}
	for i, r := range got[:cap(got)] {
		if r != (Record{}) {
			t.Fatalf("recycled buffer holds %v at %d, past the length it came back with", r, i)
		}
	}

	for _, c := range []int{400, 100, 200} {
		RecycleRecords(make([]Record, 0, c))
	}
	if c := cap(TakeRecords(150)); c != 200 {
		t.Errorf("TakeRecords(150) gave capacity %d, want the best fit, 200", c)
	}
	if c := cap(TakeRecords(500)); c != 500 {
		t.Errorf("TakeRecords(500) gave capacity %d, want a new buffer of 500", c)
	}

	emptyFreeList()
	for range freeRecordBufs + 1 {
		RecycleRecords(make([]Record, 0, 1))
	}
	if n := len(recordFree.bufs); n != freeRecordBufs {
		t.Errorf("the list holds %d buffers, want at most %d", n, freeRecordBufs)
	}
	emptyFreeList()
	half := freeRecordBytes / recordBytes(1) / 2
	for range 3 {
		RecycleRecords(make([]Record, 0, half))
	}
	RecycleRecords(make([]Record, 0, 2*half+1))
	if n, b := len(recordFree.bufs), recordFree.bytes; n != 2 || b > freeRecordBytes {
		t.Errorf("the list holds %d buffers of %d bytes, want 2 within %d", n, b, freeRecordBytes)
	}
}

// TestRecordFreeListConcurrent: tasks on several goroutines share the list;
// no buffer is handed to two of them at once (run under -race).
func TestRecordFreeListConcurrent(t *testing.T) {
	defer emptyFreeList()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				buf := TakeRecords(16 + (g*500+i)%64)
				if len(buf) != 0 {
					t.Errorf("took a buffer of length %d", len(buf))
					return
				}
				for range cap(buf) {
					buf = append(buf, Record{Key: "k"})
				}
				RecycleRecords(buf)
			}
		}()
	}
	wg.Wait()
}

// outputSizes are the record counts the chunked sink is checked at: none,
// one, either side of the first chunk and of the chunk cap, and many
// chunks.
var outputSizes = []int{0, 1, firstOutputChunk - 1, firstOutputChunk, firstOutputChunk + 1,
	outputChunkMax - 1, outputChunkMax, outputChunkMax + 1, 5*outputChunkMax + 17}

// TestRecordSinkChunks: a sink hands back every record in write order, in
// chunks that grow from firstOutputChunk to outputChunkMax and are full but
// for the last, and never moves a record once written.
func TestRecordSinkChunks(t *testing.T) {
	emptyFreeList()
	defer emptyFreeList()
	for _, n := range outputSizes {
		s := NewRecordSink()
		var first *Record
		for i := range n {
			s.Write(strconv.Itoa(i), "v")
			if i == 0 {
				first = unsafe.SliceData(s.cur)
			}
		}
		chunks := s.Chunks()
		if got := chunks.Len(); got != n {
			t.Fatalf("%d records: the chunks hold %d", n, got)
		}
		for i, r := range chunks.AppendTo(nil) {
			if r.Key != strconv.Itoa(i) {
				t.Fatalf("%d records: record %d is %v", n, i, r)
			}
		}
		if n > 0 && unsafe.SliceData(chunks[0]) != first {
			t.Fatalf("%d records: the first chunk was copied", n)
		}
		want := firstOutputChunk
		for i, ch := range chunks {
			if cap(ch) != want || (i < len(chunks)-1 && len(ch) != cap(ch)) {
				t.Fatalf("%d records: chunk %d holds %d of %d, want a full %d but for the last", n, i, len(ch), cap(ch), want)
			}
			want = min(2*want, outputChunkMax)
		}
		if s.Chunks() != nil {
			t.Fatalf("%d records: the sink still holds chunks once handed over", n)
		}
		chunks.Recycle()
		emptyFreeList()
	}
}

// TestRecycledChunkHoldsNoString: output chunks handed back through
// Chunks.Recycle come out of the free list zeroed across their capacity,
// and a sink fills them instead of allocating record headers.
func TestRecycledChunkHoldsNoString(t *testing.T) {
	emptyFreeList()
	defer emptyFreeList()
	s := NewRecordSink()
	for i := range 3 * outputChunkMax {
		s.Write(strconv.Itoa(i), "value")
	}
	chunks := s.Chunks()
	arrays := make(map[*Record]bool)
	for _, ch := range chunks {
		arrays[unsafe.SliceData(ch)] = true
	}
	chunks.Recycle()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	again := NewRecordSink()
	for range 2 * outputChunkMax {
		again.Write("k", "v")
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= uint64(recordBytes(firstOutputChunk)) {
		t.Errorf("a sink over recycled chunks allocated %d bytes for %d records; its first chunk alone takes %d",
			b, 2*outputChunkMax, recordBytes(firstOutputChunk))
	}
	again.Chunks().Recycle()
	for range len(arrays) {
		buf := TakeRecords(1)
		if !arrays[unsafe.SliceData(buf)] {
			t.Fatalf("took a buffer of capacity %d that was no recycled chunk", cap(buf))
		}
		for i, r := range buf[:cap(buf)] {
			if r != (Record{}) {
				t.Fatalf("a recycled chunk holds %v at %d", r, i)
			}
		}
	}
}
