package mr

// Transport equivalence suite for the exec/shuffle split: every app in
// internal/apps must produce the same output over all three shuffle
// transports — in-process, spill-run exchange, loopback TCP — in both
// execution modes. Barrier output must be byte-identical across transports
// (the (map task, publish order) run ordering reproduces the in-memory
// stable sort exactly, local file or fetched section alike); pipelined
// output must match as sorted multisets (order-sensitive GA compares record
// counts, as in the batching suite). Run under -race in CI: the suite
// doubles as a race exercise of concurrent sealing, serving and fetching.

import (
	"fmt"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

var allTransports = []shuffle.Kind{shuffle.InProc, shuffle.TCP}

func TestTransportEquivalence(t *testing.T) {
	for _, tc := range equivalenceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mappers := 4
			if tc.orderSensitive {
				mappers = 1
			}
			ref, err := Run(tc.app, tc.input,
				Options{Mappers: mappers, Reducers: tc.reducers, Mode: Barrier})
			if err != nil {
				t.Fatalf("in-proc barrier reference: %v", err)
			}
			for _, kind := range allTransports {
				for _, spill := range []int64{0, 16 << 10} {
					name := fmt.Sprintf("%v-spill%d", kind, spill)
					res, err := Run(tc.app, tc.input, Options{
						Mappers: mappers, Reducers: tc.reducers, Mode: Barrier,
						Transport: kind, SpillBytes: spill, SpillDir: t.TempDir(),
					})
					if err != nil {
						t.Fatalf("barrier %s: %v", name, err)
					}
					requireExact(t, tc.name+"-barrier-"+name, ref.Output, res.Output)
					if res.ShuffleRecords != ref.ShuffleRecords {
						t.Fatalf("barrier %s: shuffled %d records, want %d",
							name, res.ShuffleRecords, ref.ShuffleRecords)
					}
					if kind != shuffle.InProc && res.ShuffleRecords > 0 && res.SpilledBytes == 0 {
						t.Fatalf("barrier %s: run exchange sealed nothing", name)
					}
				}
				res, err := Run(tc.app, tc.input, Options{
					Mappers: mappers, Reducers: tc.reducers, Mode: Pipelined,
					Transport: kind, SpillDir: t.TempDir(), BatchSize: 64,
				})
				if err != nil {
					t.Fatalf("pipelined %v: %v", kind, err)
				}
				if tc.orderSensitive {
					if len(res.Output) != len(ref.Output) {
						t.Fatalf("pipelined %v: %d records vs barrier's %d",
							kind, len(res.Output), len(ref.Output))
					}
					continue
				}
				requireSame(t, tc.name+"-pipelined-"+kind.String(), ref.Output, res.Output)
			}
		})
	}
}

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

// TestTransportCombiner: map-side combining composes with the run-exchange
// transports (each published wave is combined before sealing).
func TestTransportCombiner(t *testing.T) {
	input := workload.Text(9, 4000, 500, 10)
	app := apps.WordCount()
	plain := app
	combined := app
	combined.Combiner = app.Merger
	ref, err := Run(plain, input, Options{Mappers: 4, Reducers: 4, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allTransports {
		for _, mode := range []Mode{Barrier, Pipelined} {
			res, err := Run(combined, input, Options{
				Mappers: 4, Reducers: 4, Mode: mode, Transport: kind,
				SpillDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, mode, err)
			}
			requireSame(t, "combined-"+kind.String(), ref.Output, res.Output)
			if res.ShuffleRecords >= ref.ShuffleRecords {
				t.Fatalf("%v/%v: combiner did not cut shuffle volume: %d >= %d",
					kind, mode, res.ShuffleRecords, ref.ShuffleRecords)
			}
		}
	}
}
