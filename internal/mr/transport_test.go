package mr

// Transport tests beyond output equivalence (FuzzJob's): the run-server's
// handle cache, and merge fan-in over each transport and a pipelined store.

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

var allTransports = []shuffle.Kind{shuffle.InProc, shuffle.TCP}

// TestServerOpensCounter: over the TCP exchange every sealed wave is one
// file serving one section per partition, and the run-server's handle cache
// opens each file once however many sections are cut from it. The budget
// keeps the file count under the cache's cap (fileCacheCap, 128 handles):
// past it the LRU bounds open descriptors by design, and opens then grow
// with how far apart the reducers drift — scheduling luck, not a contract
// (DESIGN.md §13).
func TestServerOpensCounter(t *testing.T) {
	const mappers = 4
	input := workload.Text(21, 6000, 700, 8)
	res, err := Run(apps.WordCount(), input, Options{
		Mappers: mappers, Reducers: 4, Mode: Barrier, Transport: shuffle.TCP,
		SpillBytes: 32 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A mapper seals one file per budget crossing plus one for its tail.
	files := int64(res.Spills + mappers)
	if files <= 2*mappers || files > 128 {
		t.Fatalf("sealed %d files: want many waves per mapper, all inside the handle cache", files)
	}
	if res.ServerOpens != files {
		t.Fatalf("ServerOpens=%d for %d sealed files (%d fetched sections): want one open per file",
			res.ServerOpens, files, files*4)
	}
}

// TestMergeFanIn: a tiny spill budget over a fan-in cap of 2 forces
// multi-pass merging; the multi-pass output must stay byte-identical to the
// single-pass (and in-memory) barrier output, on every transport.
func TestMergeFanIn(t *testing.T) {
	input := workload.Text(13, 3000, 600, 8)
	ref, err := Run(apps.WordCount(), input,
		Options{Mappers: 4, Reducers: 3, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allTransports {
		res, err := Run(apps.WordCount(), input, Options{
			Mappers: 4, Reducers: 3, Mode: Barrier, Transport: kind,
			SpillBytes: 4 << 10, SpillDir: t.TempDir(), MergeFanIn: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		requireExact(t, "fanin-"+kind.String(), ref.Output, res.Output)
		if res.MergePasses == 0 {
			t.Fatalf("%v: expected multi-pass merging at fan-in 2 (spills=%d)", kind, res.Spills)
		}
	}
}

// TestMergeFanInPipelinedStore: the fan-in cap composes with pipelined
// spill stores (the external merge inside store.SpillStore is per-store and
// unaffected; this guards output correctness of the combination).
func TestMergeFanInPipelinedStore(t *testing.T) {
	input := workload.UniformKeys(5, 30_000, 1<<40)
	ref, err := Run(apps.Sort(), input,
		Options{Mappers: 4, Reducers: 2, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(apps.Sort(), input, Options{
		Mappers: 4, Reducers: 2, Mode: Pipelined, Transport: shuffle.TCP,
		SpillBytes: 16 << 10, SpillDir: t.TempDir(), MergeFanIn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "fanin-pipelined", ref.Output, res.Output)
	if res.Spills == 0 {
		t.Fatal("expected pipelined store spills at a 16KiB budget")
	}
}
