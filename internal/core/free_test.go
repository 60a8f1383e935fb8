package core

import (
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
