package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/simmr"
)

// WorkerScaling sweeps the worker-pool size over a WordCount job on the
// TCP run-exchange transport — the simulated counterpart of
// `blmr -workers N -transport tcp` — and reports completion time in both
// modes. Small pools serialize tasks on few nodes and lose chunk locality;
// the curve shows how much cluster the barrier-less win survives on, and
// where run-fetch RPC latency starts to matter.
func WorkerScaling(workerCounts []int) Sweep {
	ds := WordCountData(4)
	return grid(Sweep{
		ID:     "WorkerScaling",
		Title:  "WordCount 4GB over the TCP run exchange: completion vs worker count",
		XLabel: "workers",
	}, floats(workerCounts), func(w float64) RunSpec {
		spec := baseSpec(apps.WordCount(), ds, CalibWordCount, 60)
		spec.Workers, spec.Transport = int(w), simmr.TCPRunExchange
		return spec
	}, failedAs("FAILED"), modeCurves("barrier", "pipelined"))
}

// TransportOverhead compares the two simulated transports at a fixed worker
// pool, quantifying what materializing and fetching sealed runs costs next
// to the in-process shuffle.
func TransportOverhead(workers int) Sweep {
	ds := WordCountData(4)
	return grid(Sweep{
		ID:     "TransportOverhead",
		Title:  fmt.Sprintf("WordCount 4GB, %d workers: completion by transport", workers),
		XLabel: "transport(0=inproc,1=tcp)",
	}, []float64{float64(simmr.InProcShuffle), float64(simmr.TCPRunExchange)},
		func(tr float64) RunSpec {
			spec := baseSpec(apps.WordCount(), ds, CalibWordCount, 60)
			spec.Workers, spec.Transport = workers, simmr.Transport(tr)
			return spec
		}, failedAs("FAILED"), modeCurves("barrier", "pipelined"))
}
