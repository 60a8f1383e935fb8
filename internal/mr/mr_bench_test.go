package mr

// The go test -bench functions something still cites. The repo benchmark
// (bench/) is where end-to-end numbers come from. CI's bench-smoke step runs
// PipelinedWordCount1M_Batch256, PipelinedSort1M_Spill1MiB,
// BarrierWordCount250K_TCPDelta, PipelinedLastFM and PipelinedKNN once each;
// CHANGES.md quotes the rest by name. PipelinedLastFM and PipelinedKNN time
// the two list-valued folds, post-reduction and selection, which no bench/
// workload runs.

import (
	"slices"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/harness"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

// benchRun times Run(job, input, opts) and reports input records per second
// of job wall time; check (may be nil) inspects each result.
func benchRun(b *testing.B, job Job, input []core.Record, opts Options, check func(*Result)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(job, input, opts)
		if err != nil {
			b.Fatal(err)
		}
		if check != nil {
			check(res)
		}
		b.ReportMetric(float64(len(input))/res.Wall.Seconds(), "recs/s")
	}
}

// 1M lines of Zipf text, ~4M intermediate records, over the batched in-proc
// channels: the barrier-less fast path.
func BenchmarkPipelinedWordCount1M_Batch256(b *testing.B) {
	benchRun(b, apps.WordCount(), workload.Text(1, 1_000_000, 20_000, 4),
		Options{Mode: Pipelined, Mappers: 4, Reducers: 4, BatchSize: 256}, nil)
}

func benchSortInput() []core.Record { return workload.UniformKeys(2, 1_000_000, 1<<40) }

// Every key misses the reducers' stores: the all-miss path, every key
// inserted and sorted once at Emit.
func BenchmarkPipelinedSort1M_Batch256(b *testing.B) {
	benchRun(b, apps.Sort(), benchSortInput(),
		Options{Mode: Pipelined, Mappers: 4, Reducers: 4, BatchSize: 256}, nil)
}

// The same sort with partial results bounded at 1MiB per reducer (~17.5MB
// unbounded): the disk-backed spill-merge store.
func BenchmarkPipelinedSort1M_Spill1MiB(b *testing.B) {
	opts := Options{Mode: Pipelined, Mappers: 4, Reducers: 4, SpillBytes: 1 << 20, SpillDir: b.TempDir()}
	benchRun(b, apps.Sort(), benchSortInput(), opts, func(res *Result) {
		if res.SpilledBytes == 0 {
			b.Fatal("spill benchmark never spilled")
		}
		b.ReportMetric(float64(res.PeakPartialBytes)/(1<<20), "peak-partial-MB")
		b.ReportMetric(float64(res.SpilledBytes)/(1<<20), "spilled-MB")
	})
}

// Barrier WordCount over the sealed-run TCP exchange: plain runs, then
// delta-compressed runs, where LZ pays on the fetch path (WordCount keys).
func benchBarrierTCP(b *testing.B, comp codec.Compression) {
	benchRun(b, apps.WordCount(), workload.Text(2, 250_000, 20_000, 4), Options{
		Mode: Barrier, Mappers: 4, Reducers: 4, Transport: shuffle.TCP,
		Compression: comp, SpillDir: b.TempDir(),
	}, nil)
}

func BenchmarkBarrierWordCount250K_TCP(b *testing.B)      { benchBarrierTCP(b, codec.None) }
func BenchmarkBarrierWordCount250K_TCPDelta(b *testing.B) { benchBarrierTCP(b, codec.DeltaBlock) }

// benchModes runs job over the TCP run exchange, 4 maps x 4 reduces, once a
// sub-benchmark per mode: the pipelined arm folds every record into the
// reducers' stores, the barrier arm is its reference.
func benchModes(b *testing.B, job Job, ds harness.Dataset) {
	input := slices.Concat(ds.Splits...)
	for _, mode := range []Mode{Pipelined, Barrier} {
		b.Run(mode.String(), func(b *testing.B) {
			benchRun(b, job, input, Options{
				Mode: mode, Mappers: 4, Reducers: 4, Transport: shuffle.TCP, SpillDir: b.TempDir(),
			}, nil)
		})
	}
}

// Last.fm unique listeners at size 16 (320 000 listens): each listen joins
// its track's user set.
func BenchmarkPipelinedLastFM(b *testing.B) {
	benchModes(b, apps.LastFM(), harness.LastFMData(16))
}

// k-NN at size 16 (24 000 training points x 12 queries): each distance
// joins its query's top-10 list.
func BenchmarkPipelinedKNN(b *testing.B) {
	ds, exp := harness.KNNData(16)
	benchModes(b, apps.KNN(10, exp), ds)
}
