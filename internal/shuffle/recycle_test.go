package shuffle

// Allocation guards for the reduce sources' batch recycling: once a source
// has handed out its first batch, draining a sealed section through
// NextBatch and Recycle reuses that batch's header array instead of making
// a new one per batch.

import (
	"testing"

	"blmr/internal/core"
	"blmr/internal/dfs"
)

// The guarded sections hold recycleRecs records, full batches for the first
// NextBatch, AllocsPerRun's warm-up call and recycleRuns measured calls, and
// one to spare so the section does not end inside the measurement.
const (
	recycleBatch = 256
	recycleRuns  = 6
	recycleRecs  = (recycleRuns + 3) * recycleBatch
)

// byteRecs returns n records with one-byte keys and empty values. A
// section's reader copies each string out of its read buffer, but a string
// that short needs no allocation, so what the guards count is headers.
func byteRecs(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{Key: string(rune('a' + i%26))}
	}
	return recs
}

// requireRecycledDrain takes one batch from src, then checks that further
// NextBatch + Recycle cycles allocate nothing.
func requireRecycledDrain(t *testing.T, src ReduceSource) {
	t.Helper()
	batch, ok, err := src.NextBatch()
	if err != nil || !ok || len(batch) != recycleBatch {
		t.Fatalf("first batch: %d records, ok=%v err=%v", len(batch), ok, err)
	}
	src.Recycle(batch)
	allocs := testing.AllocsPerRun(recycleRuns, func() {
		batch, ok, err := src.NextBatch()
		if err != nil || !ok || len(batch) != recycleBatch {
			t.Fatalf("batch: %d records, ok=%v err=%v", len(batch), ok, err)
		}
		src.Recycle(batch)
	})
	if allocs != 0 {
		t.Errorf("NextBatch + Recycle made %.1f allocations per batch, want 0", allocs)
	}
}

// TestPushSourceRecyclesBatches: a PushSource streaming a sealed section
// from a run-server refills the batch it was handed back.
func TestPushSourceRecyclesBatches(t *testing.T) {
	dir, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewFetchPool()
	defer pool.Close()
	w, _, ok, err := sealWave(dir, srv, "t", [][]core.Record{byteRecs(recycleRecs)}, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	src := NewPushSource(1, recycleBatch, pool, 4)
	if err := src.Offer(0, 0, SegmentsOf([]Wave{w}, 0)); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	requireRecycledDrain(t, src)
}
