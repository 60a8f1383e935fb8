package mr

// Transport microbenchmarks: the same barrier WordCount over the three
// shuffle transports, quantifying what the run-exchange disciplines cost
// next to the shared-memory data plane (sealing + decode for the local
// exchange, plus loopback fetch connections for TCP).

import (
	"sync"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

var transportBenchInput struct {
	once sync.Once
	recs []core.Record
}

func benchTransportInput() []core.Record {
	transportBenchInput.once.Do(func() {
		transportBenchInput.recs = workload.Text(2, 250_000, 20_000, 4)
	})
	return transportBenchInput.recs
}

func benchBarrierTransport(b *testing.B, kind shuffle.Kind) {
	input := benchTransportInput()
	job := apps.WordCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(job, input, Options{
			Mode: Barrier, Mappers: 4, Reducers: 4,
			Transport: kind, SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(input))/res.Wall.Seconds(), "recs/s")
	}
}

func BenchmarkBarrierWordCount250K_InProc(b *testing.B) { benchBarrierTransport(b, shuffle.InProc) }
func BenchmarkBarrierWordCount250K_TCP(b *testing.B)    { benchBarrierTransport(b, shuffle.TCP) }

func benchPipelinedTransport(b *testing.B, kind shuffle.Kind) {
	input := benchTransportInput()
	job := apps.WordCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(job, input, Options{
			Mode: Pipelined, Mappers: 4, Reducers: 4,
			Transport: kind, SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(input))/res.Wall.Seconds(), "recs/s")
	}
}

func BenchmarkPipelinedWordCount250K_InProc(b *testing.B) {
	benchPipelinedTransport(b, shuffle.InProc)
}
func BenchmarkPipelinedWordCount250K_TCP(b *testing.B) { benchPipelinedTransport(b, shuffle.TCP) }

// The compressed TCP exchange at decode-workers 1 vs the default pool: how
// much fetched-section CRC+decompress work the parallel decode pipeline
// takes off the consuming merge (identical output either way; even on a
// single-core host the pool wins by overlapping the connection's I/O waits).
func benchBarrierTCPDecode(b *testing.B, workers int) {
	input := benchTransportInput()
	job := apps.WordCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(job, input, Options{
			Mode: Barrier, Mappers: 4, Reducers: 4,
			Transport: shuffle.TCP, Compression: codec.DeltaBlock,
			DecodeWorkers: workers, SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(input))/res.Wall.Seconds(), "recs/s")
	}
}

func BenchmarkBarrierWordCount250K_TCPDeltaDecode1(b *testing.B) { benchBarrierTCPDecode(b, 1) }
func BenchmarkBarrierWordCount250K_TCPDeltaDecodeN(b *testing.B) { benchBarrierTCPDecode(b, 0) }
