package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/dfs"
	"blmr/internal/sortx"
	"blmr/internal/workload"
)

// diskSpillStore builds a SpillStore whose runs live in real files under a
// test temp dir, via the dfs.RunSet implementation of RunStore.
func diskSpillStore(t *testing.T, threshold int64) (*SpillStore, *dfs.RunDir) {
	t.Helper()
	rd, err := dfs.NewRunDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return NewSpillStore(threshold, sumMerger, nil, rd.NewRunSet("test")), rd
}

// TestDiskSpillStoreMatchesMemory drives identical aggregation streams
// through a memory-backed and a disk-backed spill store; outputs must be
// identical, and the disk-backed one must have really written files.
func TestDiskSpillStoreMatchesMemory(t *testing.T) {
	mem := NewSpillStore(2048, sumMerger, nil, nil)
	disk, rd := diskSpillStore(t, 2048)

	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("word%03d", (i*13)%151)
		mem.Merge(key, "1", sumMerger)
		disk.Merge(key, "1", sumMerger)
	}
	if disk.Spills == 0 {
		t.Fatal("disk store never spilled; threshold too high for the stream")
	}
	if rd.SpilledBytes() == 0 {
		t.Fatal("no bytes reached the run files")
	}
	memOut, diskOut := &sink{}, &sink{}
	mem.Emit(memOut)
	disk.Emit(diskOut)
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
	if len(memOut.recs) != len(diskOut.recs) {
		t.Fatalf("disk emitted %d records, memory %d", len(diskOut.recs), len(memOut.recs))
	}
	for i := range memOut.recs {
		if memOut.recs[i] != diskOut.recs[i] {
			t.Fatalf("record %d: disk %v vs memory %v", i, diskOut.recs[i], memOut.recs[i])
		}
	}
	// Emit released the runs: no files left behind.
	left, _ := filepath.Glob(filepath.Join(rd.Dir(), "*.run"))
	if len(left) != 0 {
		t.Fatalf("%d run files left after Emit", len(left))
	}
}

// recordingRuns is a RunStore that keeps a copy of every run sealed into it.
type recordingRuns struct {
	RunStore
	sealed [][]byte
}

func (r *recordingRuns) Append(buf []byte, rawBytes int64) error {
	r.sealed = append(r.sealed, bytes.Clone(buf))
	return r.RunStore.Append(buf, rawBytes)
}

// TestSpillMergeSumMatchesMerge feeds one stream to a spill store through
// MergeSum and to another through Merge with SumMerger, with runs in memory
// and on disk: they must spill at the same calls, seal byte-identical runs
// and emit the same records. Keys are Zipf-skewed, so hot keys are folded
// across many spill cycles, and some values are not plain counts.
func TestSpillMergeSumMatchesMerge(t *testing.T) {
	rng := workload.NewRNG(3)
	z := workload.NewZipf(rng, 400, 1.0)
	type op struct{ key, val string }
	stream := make([]op, 20_000)
	for i := range stream {
		v := "1"
		if i%97 == 0 {
			v = sumValues[i/97%len(sumValues)]
		}
		stream[i] = op{fmt.Sprintf("word%03d", z.Next()), v}
	}
	for _, backing := range []string{"memory", "disk"} {
		t.Run(backing, func(t *testing.T) {
			build := func() (*SpillStore, *recordingRuns) {
				comp := codec.DeltaBlock
				runs := MemRuns(comp)
				if backing == "disk" {
					rd, err := dfs.NewRunDirComp(t.TempDir(), comp)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { rd.Close() })
					runs = rd.NewRunSet("test")
				}
				rec := &recordingRuns{RunStore: runs}
				return NewSpillStore(4096, SumMerger, nil, rec), rec
			}
			sum, sumRuns := build()
			merge, mergeRuns := build()
			for i, o := range stream {
				sum.MergeSum(o.key, o.val)
				merge.Merge(o.key, o.val, SumMerger)
				if sum.Spills != merge.Spills || sum.MemBytes() != merge.MemBytes() {
					t.Fatalf("call %d: Spills,MemBytes = %d,%d, Merge's %d,%d",
						i, sum.Spills, sum.MemBytes(), merge.Spills, merge.MemBytes())
				}
			}
			if sum.Spills < 10 || sum.SpilledBytes() != merge.SpilledBytes() {
				t.Fatalf("Spills %d, SpilledBytes %d, Merge's %d", sum.Spills, sum.SpilledBytes(), merge.SpilledBytes())
			}
			for i := range mergeRuns.sealed {
				if !bytes.Equal(sumRuns.sealed[i], mergeRuns.sealed[i]) {
					t.Fatalf("run %d differs", i)
				}
			}
			a, b := &sink{}, &sink{}
			sum.Emit(a)
			merge.Emit(b)
			if sum.Err() != nil || merge.Err() != nil {
				t.Fatal(sum.Err(), merge.Err())
			}
			if len(a.recs) == 0 || fmt.Sprint(a.recs) != fmt.Sprint(b.recs) {
				t.Fatalf("Emit differs: %d records, Merge's %d", len(a.recs), len(b.recs))
			}
		})
	}
}

// failingRuns fails Append after n successes.
type failingRuns struct {
	n   int
	err error
}

func (f *failingRuns) Append([]byte, int64) error {
	if f.n <= 0 {
		return f.err
	}
	f.n--
	return nil
}
func (f *failingRuns) Compression() codec.Compression { return codec.None }
func (f *failingRuns) Runs() ([]sortx.Run, error)     { return nil, nil }
func (f *failingRuns) Release() error                 { return nil }

// TestSpillStoreSurvivesStorageFailure: when run storage starts failing,
// the store must keep partials in memory (no data loss) and report the
// error through Err.
func TestSpillStoreSurvivesStorageFailure(t *testing.T) {
	boom := errors.New("disk full")
	s := NewSpillStore(512, sumMerger, nil, &failingRuns{n: 0, err: boom})
	for i := 0; i < 500; i++ {
		s.Merge(fmt.Sprintf("k%04d", i), "1", sumMerger)
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err() = %v, want the storage failure", s.Err())
	}
	// All 500 keys still reachable in memory despite the failed spill.
	if s.Len() != 500 {
		t.Fatalf("live keys = %d, want 500 (partials must not be dropped)", s.Len())
	}
}

func TestApproxBytesConsistent(t *testing.T) {
	// The flat-record rule and the tree's own accounting must agree, so
	// engines can budget slice buffers and tree stores against the same
	// threshold.
	m := NewMemStore()
	var want int64
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("key%04d", i), "12"
		m.Merge(k, v, sumMerger)
		want += ApproxRecordBytes(k, v)
	}
	if m.ApproxBytes() != want {
		t.Fatalf("MemStore.ApproxBytes = %d, ApproxRecordBytes sum = %d", m.ApproxBytes(), want)
	}
	// SpillStore: ApproxBytes covers tree + retained scratch.
	s := NewSpillStore(1<<20, sumMerger, nil, nil)
	s.Merge("a", "1", sumMerger)
	if s.ApproxBytes() < s.MemBytes() {
		t.Fatal("ApproxBytes must include MemBytes")
	}
}
