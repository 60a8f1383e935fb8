package mpexec_test

// Cross-wave overlap tests: the overlapped control plane (the default since
// the streamed-'m' protocol) must preserve every output guarantee of the
// staged one, and the pooled fetch plane must bound run-server dials near
// peers × fan-in instead of one per fetched section.

import (
	"testing"

	"blmr/internal/apps"
	blexec "blmr/internal/exec"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

// TestClusterStagedEquivalence: the pre-overlap control plane (Staged) is
// still available as the benchmark baseline and stays byte-identical to
// the single-process engine in barrier mode.
func TestClusterStagedEquivalence(t *testing.T) {
	input := workload.Text(25, 2000, 400, 8)
	ref, err := mr.Run(apps.WordCount(), input,
		blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier})
	if err != nil {
		t.Fatal(err)
	}
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier, Staged: true}
	res, err := runCluster(t, apps.WordCount(), input, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("%d records vs %d", len(res.Output), len(ref.Output))
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("record %d: %v vs %v", i, res.Output[i], ref.Output[i])
		}
	}
}

// TestClusterConnPoolReuse: a spill-heavy job fetches far more sections
// than the pooled fetch plane dials connections. Each worker keeps one
// multiplexed connection per peer (more only under the merge's concurrent
// fan-in), so job-wide dials stay within workers × peers × MergeFanIn —
// per fetching worker, ≤ workers × MergeFanIn — while the section count,
// with a tiny spill budget forcing a sealed wave per few KiB, is far
// higher. Before pooling this job would dial once per section.
func TestClusterConnPoolReuse(t *testing.T) {
	const (
		workers = 2
		fanIn   = 2
	)
	// One reduce task per worker, so the per-worker concurrent-checkout
	// bound is exactly peers × fanIn.
	input := workload.Text(26, 4000, 500, 8)
	opts := blexec.Options{
		Mappers: 4, Reducers: 2, Mode: blexec.Barrier,
		SpillBytes: 8 << 10, MergeFanIn: fanIn,
	}
	res, err := runCluster(t, apps.WordCount(), input, opts, workers,
		"MPEXEC_SPILL=1", "MPEXEC_FANIN=2")
	if err != nil {
		t.Fatal(err)
	}
	// Sections fetched ≥ sealed waves (every wave has ≥1 non-empty
	// partition); prove the workload would have exploded a dial-per-section
	// plane.
	dialBound := int64(workers * workers * fanIn)
	if int64(res.Spills) <= dialBound {
		t.Fatalf("workload too small to prove reuse: %d spill waves vs dial bound %d",
			res.Spills, dialBound)
	}
	if res.FetchDials == 0 {
		t.Fatal("no dials reported — fetch-plane accounting broken")
	}
	if res.FetchDials > dialBound {
		t.Fatalf("pooled fetch plane dialed %d times, want ≤ workers×peers×fanIn = %d (spill waves: %d)",
			res.FetchDials, dialBound, res.Spills)
	}
	if res.FetchBytes == 0 {
		t.Fatal("no fetch bytes reported")
	}
	t.Logf("conn pool: %d dials for ≥%d sections (bound %d)", res.FetchDials, res.Spills, dialBound)
}
