package simmr

// Tests of the JobSpec.SpillBytes cost model: the external shuffle must
// preserve output, cost time (the memory/throughput trade-off), and bound
// the barrier sort-phase memory sample.

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/store"
	"blmr/internal/workload"
)

// runSpill executes wordcount over a fixed corpus with the given budget.
func runSpill(t *testing.T, mode Mode, spillBytes int64) *Result {
	t.Helper()
	e := NewEngine(testConfig())
	input := workload.Text(7, 4000, 600, 8)
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), mode, 4)
	job.SpillBytes = spillBytes
	res := e.Run(job, f)
	if res.Failed {
		t.Fatalf("mode=%v spill=%d failed: %s", mode, spillBytes, res.FailReason)
	}
	return res
}

func TestSpillBytesPreservesOutput(t *testing.T) {
	for _, mode := range []Mode{Barrier, Pipelined} {
		ref := runSpill(t, mode, 0)
		res := runSpill(t, mode, 4<<10)
		a, b := sortRecs(ref.Output), sortRecs(res.Output)
		if len(a) != len(b) {
			t.Fatalf("mode=%v: %d vs %d records", mode, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("mode=%v record %d: %v vs %v", mode, i, b[i], a[i])
			}
		}
		if res.SpillRuns == 0 {
			t.Fatalf("mode=%v: map outputs dwarf 4KiB but no spill runs were modeled", mode)
		}
	}
}

// TestSpillBytesCostsTime: sealing runs and paying the merge pass must slow
// the job down, and more so as the budget shrinks — the throughput side of
// the trade-off.
func TestSpillBytesCostsTime(t *testing.T) {
	free := runSpill(t, Barrier, 0)
	loose := runSpill(t, Barrier, 64<<10)
	tight := runSpill(t, Barrier, 4<<10)
	if !(free.Completion < loose.Completion && loose.Completion < tight.Completion) {
		t.Fatalf("completion should rise as the budget falls: unlimited %.2f, 64KiB %.2f, 4KiB %.2f",
			free.Completion, loose.Completion, tight.Completion)
	}
	if tight.SpillRuns <= loose.SpillRuns {
		t.Fatalf("tighter budget must seal more runs: %d vs %d", tight.SpillRuns, loose.SpillRuns)
	}
}

// TestSpillBytesBoundsBarrierSortMemory: with a budget, the barrier
// reducer's sort phase is an external merge, so its memory sample is capped
// at the budget; unbounded, it reports the full fetched partition volume —
// the comparison that makes the bound's benefit visible.
func TestSpillBytesBoundsBarrierSortMemory(t *testing.T) {
	const budget = 4 << 10
	free := runSpill(t, Barrier, 0)
	bounded := runSpill(t, Barrier, budget)
	if free.PeakMemVirt <= budget {
		t.Fatalf("unbounded barrier sort memory %d should dwarf the %d budget", free.PeakMemVirt, budget)
	}
	if bounded.PeakMemVirt == 0 || bounded.PeakMemVirt > budget {
		t.Fatalf("bounded barrier sort memory sample = %d, want (0, %d]", bounded.PeakMemVirt, budget)
	}
}

// TestSpillBytesOverridesSpillThreshold: parity with mr — SpillBytes
// bounds an explicit SpillMerge store too, overriding a (much larger)
// SpillThreshold, so figure reproductions and the real engine agree.
func TestSpillBytesOverridesSpillThreshold(t *testing.T) {
	e := NewEngine(testConfig())
	input := workload.Text(7, 4000, 600, 8)
	f := e.Ingest("in", workload.SplitEvenly(input, 8))
	job := jobFor(apps.WordCount(), Pipelined, 4)
	job.Store = store.SpillMerge
	job.SpillThreshold = 64 << 20 // would never spill on this input
	job.SpillBytes = 8 << 10
	res := e.Run(job, f)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	if res.Spills == 0 {
		t.Fatal("SpillBytes must override the larger SpillThreshold")
	}
}

// TestSpillBytesWithoutMergerFails: same contract as mr.Run — a
// bounded-memory pipelined run without a merger is refused (reported as a
// failed job, the simulator's error channel), not silently unbounded.
func TestSpillBytesWithoutMergerFails(t *testing.T) {
	e := NewEngine(testConfig())
	input := workload.Text(7, 100, 60, 4)
	f := e.Ingest("in", workload.SplitEvenly(input, 2))
	job := jobFor(apps.WordCount(), Pipelined, 2)
	job.Merger = nil
	job.SpillBytes = 4 << 10
	res := e.Run(job, f)
	if !res.Failed {
		t.Fatal("merger-less pipelined job with SpillBytes must fail")
	}
}

// TestSpillMergeWithoutMergerFails: an explicit spill-merge store needs a
// merger with no SpillBytes set too; the job is refused like mr.Run refuses
// it, instead of panicking in the store's constructor mid-simulation.
func TestSpillMergeWithoutMergerFails(t *testing.T) {
	e := NewEngine(testConfig())
	f := e.Ingest("in", workload.SplitEvenly(workload.Text(7, 100, 60, 4), 2))
	job := jobFor(apps.WordCount(), Pipelined, 2)
	job.Merger = nil
	job.Store = store.SpillMerge
	if res := e.Run(job, f); !res.Failed {
		t.Fatal("merger-less pipelined job on a spill-merge store must fail")
	}
}

// TestSpillBytesUpgradesPipelinedStore: an InMemory pipelined job with a
// merger and a budget runs on a spill-merge store, so reducer partials spill
// and peak memory stays near the budget while output is unchanged.
func TestSpillBytesUpgradesPipelinedStore(t *testing.T) {
	const budget = 8 << 10
	res := runSpill(t, Pipelined, budget)
	if res.Spills == 0 {
		t.Fatal("pipelined reducers never spilled under an 8KiB budget")
	}
	// ApproxBytes-based samples include the encode scratch: allow 3x.
	if res.PeakMemVirt > 3*budget {
		t.Fatalf("peak partials %d far above budget %d", res.PeakMemVirt, budget)
	}
}
