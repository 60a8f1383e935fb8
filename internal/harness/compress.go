package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/simmr"
)

// compressionPoint is one sealed-run codec with its workload-class
// compression ratio. The ratios mirror what the wall-clock block codecs
// measure on a Zipf text corpus (see the spill-compression benchmarks in
// internal/mr): plain LZ blocks shrink WordCount spill runs a bit under
// 2x, and front-coding the sorted keys pushes past it.
type compressionPoint struct {
	comp  codec.Compression
	ratio float64
}

// CompressionTradeoff sweeps the sealed-run codec {none, block, delta}
// over an 8GB WordCount on the run-exchange transport with a spill budget
// — the configuration whose completion time is dominated by materializing,
// re-reading and fetching sealed runs, exactly where compression pays.
// Each point divides disk writes, merge re-reads and shuffle transfers by
// the codec's ratio and charges Costs.CompressDelay per raw byte of
// (de)compression CPU, so the sweep shows where the CPU price overtakes
// the I/O win (crank CompressDelay up to see compression lose). The
// simulated sibling of the wall-clock `-compress` benchmarks
// (internal/mr's BenchmarkWordCountSpill1M_Comp*).
func CompressionTradeoff() Sweep {
	ds := WordCountData(8)
	points := []compressionPoint{
		{codec.None, 1.0},
		{codec.Block, 1.8},
		{codec.DeltaBlock, 2.8},
	}
	modes := []struct {
		label string
		mode  simmr.Mode
	}{
		{"barrier", simmr.Barrier},
		{"pipelined", simmr.Pipelined},
	}
	sw := Sweep{
		ID:     "CompressionTradeoff",
		Title:  "WordCount 8GB, run exchange + 64MB spill budget: completion by sealed-run codec",
		XLabel: "codec(0=none,1=block,2=delta)",
	}
	costs := CalibWordCount
	if costs.SpillRunDelay == 0 {
		costs.SpillRunDelay = simmr.DefaultCosts().SpillRunDelay
	}
	if costs.RunFetchDelay == 0 {
		costs.RunFetchDelay = simmr.DefaultCosts().RunFetchDelay
	}
	if costs.CompressDelay == 0 {
		costs.CompressDelay = simmr.DefaultCosts().CompressDelay
	}
	for _, m := range modes {
		ser := Series{Label: m.label}
		for _, pt := range points {
			c := costs
			c.CompressRatio = pt.ratio
			res := Run(RunSpec{
				App: apps.WordCount(), Data: ds, Mode: m.mode,
				Reducers: 60, Costs: c,
				Transport:   simmr.RunExchange,
				SpillBytes:  64 << 20,
				Compression: pt.comp,
			})
			ser.X = append(ser.X, float64(pt.comp))
			ser.Y = append(ser.Y, res.Completion)
			note := ""
			if pt.comp != codec.None {
				note = fmt.Sprintf("%.1fx", pt.ratio)
			}
			ser.Note = append(ser.Note, note)
		}
		sw.Series = append(sw.Series, ser)
	}
	return sw
}
