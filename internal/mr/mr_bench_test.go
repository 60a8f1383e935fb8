package mr

// The go test -bench functions something still cites. The repo benchmark
// (bench/: wc_inproc, sort_tcp_delta) is where end-to-end numbers come from;
// these six stay because CI's bench-smoke step compiles and runs two of
// them (PipelinedWordCount1M_Batch256, PipelinedSort1M_Spill1MiB) and
// CHANGES.md claims quote the others by name: PipelinedSort1M_Batch256
// (PR 4's slab arenas; PR 14's all-miss guard; PR 25's hash-indexed table),
// BarrierWordCount250K_TCP (PR 5's pooled fetch path) and
// BarrierWordCount250K_TCPDeltaDecode{1,N} (PR 8's decode pool).

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
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
// delta-compressed runs decoded by one worker and by the default pool.
func benchBarrierTCP(b *testing.B, comp codec.Compression, decodeWorkers int) {
	benchRun(b, apps.WordCount(), workload.Text(2, 250_000, 20_000, 4), Options{
		Mode: Barrier, Mappers: 4, Reducers: 4, Transport: shuffle.TCP,
		Compression: comp, DecodeWorkers: decodeWorkers, SpillDir: b.TempDir(),
	}, nil)
}

func BenchmarkBarrierWordCount250K_TCP(b *testing.B) { benchBarrierTCP(b, codec.None, 0) }
func BenchmarkBarrierWordCount250K_TCPDeltaDecode1(b *testing.B) {
	benchBarrierTCP(b, codec.DeltaBlock, 1)
}
func BenchmarkBarrierWordCount250K_TCPDeltaDecodeN(b *testing.B) {
	benchBarrierTCP(b, codec.DeltaBlock, 0)
}
