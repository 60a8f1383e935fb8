package codec

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"blmr/internal/core"
)

// drainParallel decodes buf through a ParallelReader on a fresh pool.
func drainParallel(t *testing.T, buf []byte, workers int, arena *Arena) ([]core.Record, error) {
	t.Helper()
	pool := NewDecodePool(workers)
	defer pool.Close()
	pr := NewParallelReader(pool, bytes.NewReader(buf), arena)
	var got []core.Record
	for {
		r, ok := pr.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	return got, pr.Err()
}

// TestParallelDecodeMatchesSerial: the pipeline must yield the exact
// record sequence of the serial blockReader at every worker count, across
// codecs, arenas, and run shapes (the determinism contract the shuffle
// merger depends on).
func TestParallelDecodeMatchesSerial(t *testing.T) {
	recs := crcTestRecords(8000) // several blocks, dict-dependent chains
	for _, comp := range []Compression{Block, DeltaBlock} {
		sealed := sealRun(t, recs, comp)
		small := sealRun(t, crcTestRecords(500), comp) // one block, no dictionary
		runs := [][]byte{sealed, small}
		for ri, buf := range runs {
			want := decodeAll(t, buf, comp)
			for _, workers := range []int{1, 4, 16} {
				for _, useArena := range []bool{false, true} {
					var arena *Arena
					if useArena {
						arena = &Arena{}
					}
					got, err := drainParallel(t, buf, workers, arena)
					if err != nil {
						t.Fatalf("%v run %d workers %d: %v", comp, ri, workers, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%v run %d workers %d: %d records, want %d", comp, ri, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v run %d workers %d record %d: %v vs %v", comp, ri, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelDecodeCorruptBlock: a bit flip mid-run must surface
// ErrCorrupt from the pipeline without hanging and without leaking the
// reader goroutine or the workers.
func TestParallelDecodeCorruptBlock(t *testing.T) {
	recs := crcTestRecords(8000)
	buf := sealRun(t, recs, Block)
	before := runtime.NumGoroutine()
	for _, off := range []int{16, len(buf) / 2, len(buf) - 3} {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x20
		_, err := drainParallel(t, mut, 4, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	// Truncations mid-block must also error, not hang the reader stage.
	for _, cut := range []int{7, len(buf) / 3, len(buf) - 1} {
		_, err := drainParallel(t, buf[:cut], 4, nil)
		if err == nil {
			t.Fatalf("cut at %d decoded cleanly", cut)
		}
	}
	// All pools above were closed; give exited goroutines a beat to die.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestParallelReaderStopMidSection: abandoning a half-consumed run must
// quiesce the pipeline (Stop returns only when the reader goroutine has
// exited) and stay idempotent.
func TestParallelReaderStopMidSection(t *testing.T) {
	buf := sealRun(t, crcTestRecords(8000), DeltaBlock)
	pool := NewDecodePool(4)
	defer pool.Close()
	for i := 0; i < 50; i++ {
		pr := NewParallelReader(pool, bytes.NewReader(buf), nil)
		for j := 0; j < i*7; j++ {
			if _, ok := pr.Next(); !ok {
				break
			}
		}
		pr.Stop()
		pr.Stop() // idempotent
	}
}

// TestParallelDecodeAfterPoolClose: sections opened against a closed pool
// fall back to inline decode and still finish correctly.
func TestParallelDecodeAfterPoolClose(t *testing.T) {
	recs := crcTestRecords(8000)
	buf := sealRun(t, recs, Block)
	pool := NewDecodePool(4)
	pool.Close()
	pr := NewParallelReader(pool, bytes.NewReader(buf), nil)
	n := 0
	for {
		if _, ok := pr.Next(); !ok {
			break
		}
		n++
	}
	if err := pr.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("decoded %d records, want %d", n, len(recs))
	}
}
