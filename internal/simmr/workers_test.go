package simmr

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/metrics"
	"blmr/internal/workload"
)

func workersTestRun(t *testing.T, workers int, tr Transport, mode Mode) *Result {
	t.Helper()
	eng := NewEngine(DefaultConfig())
	recs := workload.Text(31, 2000, 400, 6)
	f := eng.Ingest("in", workload.SplitEvenly(recs, 12))
	res := eng.Run(JobSpec{
		Job:      apps.WordCount(),
		Reducers: 8, Mode: mode, Workers: workers, Transport: tr,
	}, f)
	if res.Failed {
		t.Fatalf("workers=%d transport=%v failed: %s", workers, tr, res.FailReason)
	}
	return res
}

// TestWorkerPoolScaling: shrinking the worker pool must not change output
// and must not speed the job up — fewer nodes means serialized slots and
// lost locality.
func TestWorkerPoolScaling(t *testing.T) {
	for _, mode := range []Mode{Barrier, Pipelined} {
		full := workersTestRun(t, 0, TCPRunExchange, mode)
		var prev *Result
		prevW := len(NewEngine(DefaultConfig()).C.Nodes)
		for _, w := range []int{15, 4, 1} {
			res := workersTestRun(t, w, TCPRunExchange, mode)
			if len(res.Output) != len(full.Output) {
				t.Fatalf("mode=%v workers=%d: %d records, want %d",
					mode, w, len(res.Output), len(full.Output))
			}
			// The pooled fetch plane charges one dial per (reduce task,
			// peer), so a bigger pool pays a fixed per-peer cost that at
			// this toy scale can outweigh its parallelism by a few
			// milliseconds; allow exactly that much. The harness worker
			// sweep asserts strict monotonicity at multi-GB scale.
			slack := DefaultCosts().RunFetchDelay * float64(prevW)
			if prev != nil && res.Completion < prev.Completion-slack-1e-9 {
				t.Fatalf("mode=%v: %d workers finished faster (%.2fs) than more workers (%.2fs)",
					mode, w, res.Completion, prev.Completion)
			}
			prev, prevW = res, w
		}
	}
}

// TestTransportCosts: the run exchange costs at least as much as the
// in-process shuffle (materialization + fetch latency), with identical
// outputs.
func TestTransportCosts(t *testing.T) {
	inproc := workersTestRun(t, 4, InProcShuffle, Barrier)
	tcp := workersTestRun(t, 4, TCPRunExchange, Barrier)
	if len(tcp.Output) != len(inproc.Output) {
		t.Fatalf("outputs diverge across transports: %d/%d", len(inproc.Output), len(tcp.Output))
	}
	if tcp.Completion < inproc.Completion-1e-9 {
		t.Fatalf("tcp exchange (%.3fs) cheaper than in-process (%.3fs)",
			tcp.Completion, inproc.Completion)
	}
	// Run-exchange reducers merge externally: sort-phase memory must sit at
	// the read-buffer bound, below the materialized partition.
	if tcp.PeakMemVirt > inproc.PeakMemVirt {
		t.Fatalf("external merge should not use more memory: tcp %d vs inproc %d",
			tcp.PeakMemVirt, inproc.PeakMemVirt)
	}
}

// TestSlotsLimitConcurrency: a node runs at most Cluster.MapSlots map
// attempts at once, and fills them — six maps on one two-slot node run two
// at a time, in three waves. (The slots are the decision core's count, not a
// resource of the node: this is the old cluster.TestSlotsLimitConcurrency.)
func TestSlotsLimitConcurrency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes, cfg.Cluster.MapSlots, cfg.Replication = 1, 2, 1
	eng := NewEngine(cfg)
	f := eng.Ingest("in", workload.SplitEvenly(workload.Text(31, 1200, 400, 6), 6))
	res := eng.Run(JobSpec{Job: apps.WordCount(), Reducers: 2, Mode: Barrier}, f)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	var maps []metrics.Span
	for _, sp := range eng.Col.Spans() {
		if sp.Stage == metrics.StageMap {
			maps = append(maps, sp)
		}
	}
	if len(maps) != 6 {
		t.Fatalf("%d map attempts for 6 maps", len(maps))
	}
	for _, a := range maps {
		running := 0
		for _, b := range maps {
			if b.Start <= a.Start && a.Start < b.End {
				running++
			}
		}
		if running != 2 {
			t.Fatalf("%d maps running at t=%.4f on a two-slot node, want 2", running, a.Start)
		}
	}
}
