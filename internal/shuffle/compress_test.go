package shuffle

// Compressed wave tests: each section of a sealed wave names its codec in
// its run header, sections ship verbatim through the run-server and decode
// at the fetcher, and a transfer cut mid-block surfaces codec.ErrCorrupt.

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/dfs"
)

// sortedWave builds two key-sorted partitions with redundant text keys.
func sortedWave() [][]core.Record {
	parts := make([][]core.Record, 2)
	for p := range parts {
		for i := 0; i < 400; i++ {
			parts[p] = append(parts[p], core.Record{
				Key:   fmt.Sprintf("part%d-word%05d", p, i/4),
				Value: "1",
			})
		}
	}
	return parts
}

// TestCompressedWaveFetch seals a wave with each codec and fetches every
// section back, with parallel decode off and on: each section's run header
// names the wave's codec, and that alone picks the decoder.
func TestCompressedWaveFetch(t *testing.T) {
	for _, comp := range []codec.Compression{codec.None, codec.Block, codec.DeltaBlock} {
		for _, workers := range []int{0, 2} {
			testWaveFetch(t, comp, workers)
		}
	}
}

func testWaveFetch(t *testing.T, comp codec.Compression, workers int) {
	dir, err := dfs.NewRunDirComp(t.TempDir(), comp)
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
	pool.DecodeWorkers = workers
	defer pool.Close()
	parts := sortedWave()
	w, _, ok, err := sealWave(dir, srv, "t", parts, nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	if comp != codec.None && dir.RawSpilledBytes() <= dir.SpilledBytes() {
		t.Fatalf("%v: redundant keys did not compress: raw=%d sealed=%d",
			comp, dir.RawSpilledBytes(), dir.SpilledBytes())
	}
	path, _ := srv.PathOf(w.FileID)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range parts {
		seg, ok := w.SegmentOf(p)
		if !ok {
			t.Fatalf("partition %d empty", p)
		}
		if kind, ok := codec.HeaderKind(file[seg.Off:]); !ok || kind != comp {
			t.Fatalf("%v: partition %d's run header names %v (ok=%v)", comp, p, kind, ok)
		}
		run := fetchRun(pool, seg) // remote: w.Addr is the run-server
		got := drainRun(t, run)
		_ = run.Close()
		if len(got) != len(part) {
			t.Fatalf("%v, %d workers: partition %d: %d records, want %d", comp, workers, p, len(got), len(part))
		}
		for i := range part {
			if got[i] != part[i] {
				t.Fatalf("%v, %d workers: partition %d record %d: %+v, want %+v", comp, workers, p, i, got[i], part[i])
			}
		}
	}
}

// TestCompressedFetchShortSection: a compressed section cut short on the
// wire must surface corruption through Err — a cut mid-block breaks the
// block framing, a cut at a block boundary is caught by the
// section-length accounting.
func TestCompressedFetchShortSection(t *testing.T) {
	dir, err := dfs.NewRunDirComp(t.TempDir(), codec.Block)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w, _, ok, err := sealWave(dir, srv, "t", sortedWave(), nil)
	if err != nil || !ok {
		t.Fatalf("sealWave: ok=%v err=%v", ok, err)
	}
	pool := NewFetchPool()
	defer pool.Close()
	sp := w.Spans[0]
	for _, cut := range []int64{1, 7, sp.N / 2} {
		run := fetchRun(pool, Segment{Addr: w.Addr, FileID: w.FileID, Off: sp.Off, N: sp.N - cut})
		for {
			if _, ok := run.Next(); !ok {
				break
			}
		}
		if !errors.Is(run.Err(), codec.ErrCorrupt) {
			t.Fatalf("cut %d: Err() = %v, want codec.ErrCorrupt", cut, run.Err())
		}
		_ = run.Close()
	}
}
