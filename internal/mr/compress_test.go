package mr

// Compressed-run equivalence suite: every app must produce the same output
// over every shuffle transport in both modes with sealed-run compression
// on, at a 16KiB spill budget so the compressed path carries real volume.
// Barrier output must stay byte-identical to the uncompressed in-memory
// reference — the codecs change bytes on disk and on the wire, never the
// decompressed merge order. Run under -race in CI: the suite doubles as a
// race exercise of concurrent compressed sealing, serving and fetching.

import (
	"fmt"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

var compressionAxis = []codec.Compression{codec.None, codec.DeltaBlock}

func TestCompressionEquivalence(t *testing.T) {
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
				for _, comp := range compressionAxis {
					name := fmt.Sprintf("%v-%v", kind, comp)
					res, err := Run(tc.app, tc.input, Options{
						Mappers: mappers, Reducers: tc.reducers, Mode: Barrier,
						Transport: kind, SpillBytes: 16 << 10, SpillDir: t.TempDir(),
						Compression: comp,
					})
					if err != nil {
						t.Fatalf("barrier %s: %v", name, err)
					}
					requireExact(t, tc.name+"-barrier-"+name, ref.Output, res.Output)
					checkCompressionAccounting(t, name, res, comp, kind)

					res, err = Run(tc.app, tc.input, Options{
						Mappers: mappers, Reducers: tc.reducers, Mode: Pipelined,
						Transport: kind, SpillBytes: 16 << 10, SpillDir: t.TempDir(),
						Compression: comp, BatchSize: 64,
					})
					if err != nil {
						t.Fatalf("pipelined %s: %v", name, err)
					}
					if tc.orderSensitive {
						if len(res.Output) != len(ref.Output) {
							t.Fatalf("pipelined %s: %d records vs barrier's %d",
								name, len(res.Output), len(ref.Output))
						}
						continue
					}
					requireSame(t, tc.name+"-pipelined-"+name, ref.Output, res.Output)
				}
			}
		})
	}
}

// checkCompressionAccounting asserts the byte accounting invariants: no
// codec reports expansion beyond framing, None's stored runs never shrink,
// and TCP fetches move the sealed bytes.
func checkCompressionAccounting(t *testing.T, name string, res *Result, comp codec.Compression, kind shuffle.Kind) {
	t.Helper()
	if res.CompressedSpillBytes != res.SpilledBytes {
		t.Fatalf("%s: CompressedSpillBytes %d != SpilledBytes %d",
			name, res.CompressedSpillBytes, res.SpilledBytes)
	}
	if res.SpilledBytes > 0 && res.RawSpillBytes == 0 {
		t.Fatalf("%s: sealed %d bytes but RawSpillBytes is 0", name, res.SpilledBytes)
	}
	// None stores every block: its runs are the raw bytes plus framing.
	if comp == codec.None && res.CompressedSpillBytes < res.RawSpillBytes {
		t.Fatalf("%s: uncompressed runs shrank %d -> %d",
			name, res.RawSpillBytes, res.CompressedSpillBytes)
	}
	// Generous slack for tiny runs: per-run header + block framing.
	if res.CompressedSpillBytes > res.RawSpillBytes+res.RawSpillBytes/4+4096 {
		t.Fatalf("%s: compression expanded %d -> %d",
			name, res.RawSpillBytes, res.CompressedSpillBytes)
	}
	switch kind {
	case shuffle.TCP:
		if res.SpilledBytes > 0 && res.FetchBytes == 0 {
			t.Fatalf("%s: TCP exchange fetched 0 bytes", name)
		}
		if res.FetchBytes > res.CompressedSpillBytes {
			t.Fatalf("%s: fetched %d > sealed %d (fetches must travel compressed)",
				name, res.FetchBytes, res.CompressedSpillBytes)
		}
	default:
		if res.FetchBytes != 0 {
			t.Fatalf("%s: local transport reported %d fetch bytes", name, res.FetchBytes)
		}
	}
}

// TestCompressionProbedSortTCP: sort_tcp_delta's job shape with each
// mapper's output sealed as one wave, so every section holds 100 000
// uniform 8-byte keys in about 20 blocks: the encoder's LZ probe fails on
// a section's first block, stores the next 15 and probes again. The stored
// blocks cross the run-server, the parallel decode pool and the merge;
// barrier output must stay byte-identical to the in-memory reference, and
// the ratio is front coding's alone.
func TestCompressionProbedSortTCP(t *testing.T) {
	input := workload.UniformKeys(11, 400_000, 1<<40)
	ref, err := Run(apps.Sort(), input, Options{Mappers: 2, Reducers: 2, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(apps.Sort(), input, Options{
		Mappers: 2, Reducers: 2, Mode: Barrier, Transport: shuffle.TCP,
		SpillDir: t.TempDir(), Compression: codec.DeltaBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, "probed-sort-tcp", ref.Output, res.Output)
	checkCompressionAccounting(t, "probed-sort-tcp", res, codec.DeltaBlock, shuffle.TCP)
	raw, sealed := float64(res.RawSpillBytes), float64(res.CompressedSpillBytes)
	if sealed < raw/1.8 || sealed > raw/1.5 {
		t.Fatalf("sealed %.0f of %.0f raw bytes (%.3fx), want between 1.5x and 1.8x", sealed, raw, raw/sealed)
	}
	t.Logf("raw=%dKB sealed=%dKB (%.3fx), fetched=%dKB",
		res.RawSpillBytes>>10, res.CompressedSpillBytes>>10, raw/sealed, res.FetchBytes>>10)
}

// TestCompressionRatioWordCount: the acceptance floor — DeltaBlock must cut
// the WordCount spill volume by at least 1.5x (sorted Zipf text keys are
// the codec's home turf; the real corpus benchmarks land near 3x).
func TestCompressionRatioWordCount(t *testing.T) {
	input := workload.Text(17, 6000, 800, 8)
	for _, kind := range allTransports {
		res, err := Run(apps.WordCount(), input, Options{
			Mappers: 4, Reducers: 4, Mode: Barrier, Transport: kind,
			SpillBytes: 16 << 10, SpillDir: t.TempDir(),
			Compression: codec.DeltaBlock,
		})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.RawSpillBytes) / float64(res.CompressedSpillBytes)
		if ratio < 1.5 {
			t.Fatalf("%v: spill ratio %.2f < 1.5 (raw=%d sealed=%d)",
				kind, ratio, res.RawSpillBytes, res.CompressedSpillBytes)
		}
		t.Logf("%v: raw=%dKB sealed=%dKB (%.2fx), fetched=%dKB",
			kind, res.RawSpillBytes>>10, res.CompressedSpillBytes>>10, ratio, res.FetchBytes>>10)
	}
}

// TestCompressionCutsFetchBytes: on the TCP exchange the same job must
// fetch measurably fewer wire bytes compressed than uncompressed — the
// run-server ships sealed blocks verbatim.
func TestCompressionCutsFetchBytes(t *testing.T) {
	input := workload.Text(19, 6000, 800, 8)
	run := func(comp codec.Compression) *Result {
		res, err := Run(apps.WordCount(), input, Options{
			Mappers: 4, Reducers: 4, Mode: Barrier, Transport: shuffle.TCP,
			SpillBytes: 16 << 10, SpillDir: t.TempDir(), Compression: comp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(codec.None)
	delta := run(codec.DeltaBlock)
	requireExact(t, "fetch-compressed-vs-plain", plain.Output, delta.Output)
	if delta.FetchBytes*3 > plain.FetchBytes*2 {
		t.Fatalf("compressed fetches %d not < 2/3 of uncompressed %d",
			delta.FetchBytes, plain.FetchBytes)
	}
	t.Logf("fetch bytes: %dKB plain -> %dKB delta", plain.FetchBytes>>10, delta.FetchBytes>>10)
}

// TestCompressionWithCombinerAndFanIn: compression composes with map-side
// combining and multi-pass merging (intermediate merge runs are sealed
// compressed too), still byte-identical.
func TestCompressionWithCombinerAndFanIn(t *testing.T) {
	input := workload.Text(23, 4000, 500, 10)
	app := apps.WordCount()
	ref, err := Run(app, input, Options{Mappers: 4, Reducers: 3, Mode: Barrier})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allTransports {
		combined := app
		combined.Combiner = app.Merger
		res, err := Run(combined, input, Options{
			Mappers: 4, Reducers: 3, Mode: Barrier, Transport: kind,
			SpillBytes: 4 << 10, SpillDir: t.TempDir(), MergeFanIn: 2,
			Compression: codec.DeltaBlock,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		requireSame(t, "compress-combine-"+kind.String(), ref.Output, res.Output)
		if res.MergePasses == 0 {
			t.Fatalf("%v: expected multi-pass merging at fan-in 2", kind)
		}
	}
}
