package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/simmr"
)

// compressionRatios is each sealed-run codec's workload-class compression
// ratio. The ratios mirror what the wall-clock block codecs measure on a
// Zipf text corpus (see the spill-compression benchmarks in internal/mr):
// plain LZ blocks shrink WordCount spill runs a bit under 2x, and
// front-coding the sorted keys pushes past it.
var compressionRatios = map[codec.Compression]float64{
	codec.None:       1.0,
	codec.Block:      1.8,
	codec.DeltaBlock: 2.8,
}

// CompressionTradeoff sweeps the sealed-run codec {none, block, delta}
// over an 8GB WordCount on the TCP run exchange with a spill budget — the
// configuration whose completion time is dominated by materializing,
// re-reading and fetching sealed runs, exactly where compression pays.
// Each point divides disk writes, merge re-reads and shuffle transfers by
// the codec's ratio and charges Costs.CompressDelay per raw byte of
// (de)compression CPU, so the sweep shows where the CPU price overtakes
// the I/O win (crank CompressDelay up to see compression lose). The
// simulated sibling of the wall-clock `-compress` benchmarks
// (internal/mr's BenchmarkWordCountSpill1M_Comp*).
func CompressionTradeoff() Sweep {
	ds := WordCountData(8)
	return grid(Sweep{
		ID:     "CompressionTradeoff",
		Title:  "WordCount 8GB, TCP run exchange + 64MB spill budget: completion by sealed-run codec",
		XLabel: "codec(0=none,1=block,2=delta)",
	}, []float64{float64(codec.None), float64(codec.Block), float64(codec.DeltaBlock)},
		func(comp float64) RunSpec {
			spec := baseSpec(apps.WordCount(), ds, CalibWordCount, 60)
			spec.Transport, spec.SpillBytes = simmr.TCPRunExchange, 64<<20
			spec.Compression = codec.Compression(comp)
			spec.Costs.CompressRatio = compressionRatios[spec.Compression]
			return spec
		}, func(spec RunSpec, _ *simmr.Result) string {
			if spec.Compression == codec.None {
				return ""
			}
			return fmt.Sprintf("%.1fx", spec.Costs.CompressRatio)
		}, modeCurves("barrier", "pipelined"))
}
