package harness

import (
	"strconv"
	"strings"
	"testing"

	"blmr/internal/simmr"
)

// TestFaultSweep: worker churn must never cost correctness, must not pay
// (beyond what losing the pool's slowest node is worth), and speculation
// must never make the sweep slower — its clones only occupy otherwise idle
// slots.
func TestFaultSweep(t *testing.T) {
	sw := goldenSweep(t, "kill-worker")
	if len(sw.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(sw.Series))
	}
	for _, ser := range sw.Series {
		base := ser.Y[0]
		// 1% slack. Worker 0 is the slowest of the paper cluster's first
		// three nodes (speed 1.020 against 1.074 and 1.141), so a kill that
		// lands before it has published anything sends its maps to faster
		// nodes while the wasted attempts overlap the first wave: barrier
		// 118.21 against 118.45 undisturbed (-0.2%). On identical nodes the
		// same kill costs +7%, and simmr.TestEveryFaultPoint holds "never
		// sooner than undisturbed" strictly at every fault point there.
		// Under speculation a kill can also flip which attempt wins the
		// publish race, relocating that map's output.
		slack := base * 0.01
		for i, y := range ser.Y {
			if ser.Note[i] == "FAILED" {
				t.Fatalf("%s: point %g failed", ser.Label, ser.X[i])
			}
			if y < base-slack {
				t.Fatalf("%s: kill at frac %g finished faster (%.2f) than undisturbed (%.2f)",
					ser.Label, ser.X[i], y, base)
			}
		}
	}
	// Mid-job kills must actually lose published outputs in at least one
	// configuration — otherwise the sweep exercises nothing.
	lost := false
	for _, ser := range sw.Series {
		for i, n := range ser.Note {
			if ser.X[i] > 0 && n != "" {
				lost = true
			}
		}
	}
	if !lost {
		t.Fatal("no sweep point lost a map output; the kill injection never fired")
	}
	// Speculation never increases wall-clock: compare each +spec series
	// pointwise against its plain counterpart.
	for i := 0; i+1 < len(sw.Series); i += 2 {
		plain, spec := sw.Series[i], sw.Series[i+1]
		for j := range plain.Y {
			if spec.Y[j] > plain.Y[j]+1e-9 {
				t.Fatalf("%s is slower than %s at frac %g: %.2f vs %.2f",
					spec.Label, plain.Label, plain.X[j], spec.Y[j], plain.Y[j])
			}
		}
	}
}

// TestFaultPrediction: the parity estimate the real engine is compared
// against must be internally consistent.
func TestFaultPrediction(t *testing.T) {
	est := KillPrediction(KillWorker, 1, 3, 0.4, simmr.Barrier)
	if est.Base <= 0 || est.Disturbed < est.Base-1e-9 {
		t.Fatalf("incoherent estimate: %+v", est)
	}
	if est.Overhead < 0 {
		t.Fatalf("negative predicted overhead: %+v", est)
	}
}

// TestRestartSweep: a coordinator crash must cost time, never correctness,
// and the later the crash, the more of the map wave must re-attach from
// surviving sealed runs.
func TestRestartSweep(t *testing.T) {
	sw := goldenSweep(t, "kill-coordinator")
	if len(sw.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(sw.Series))
	}
	for _, ser := range sw.Series {
		base := ser.Y[0]
		for i, y := range ser.Y {
			if ser.Note[i] == "FAILED" {
				t.Fatalf("%s: point %g failed", ser.Label, ser.X[i])
			}
			if y < base-1e-9 {
				t.Fatalf("%s: crash at frac %g finished faster (%.2f) than undisturbed (%.2f)",
					ser.Label, ser.X[i], y, base)
			}
		}
		// Re-attach counts must be non-decreasing in the crash time: a
		// later crash has journaled at least as much of the map wave.
		prev := -1
		for i, n := range ser.Note {
			if ser.X[i] == 0 {
				continue
			}
			if !strings.HasPrefix(n, "reattach=") {
				t.Fatalf("%s: crash point %g has no reattach note (%q): the injection never fired",
					ser.Label, ser.X[i], n)
			}
			count, err := strconv.Atoi(strings.TrimPrefix(n, "reattach="))
			if err != nil {
				t.Fatalf("%s: bad note %q: %v", ser.Label, n, err)
			}
			if count < prev {
				t.Fatalf("%s: re-attach count fell from %d to %d as the crash moved later",
					ser.Label, prev, count)
			}
			prev = count
		}
		if prev < 1 {
			t.Fatalf("%s: no sweep point re-attached a map; the journal model never engaged", ser.Label)
		}
	}
}

// TestRestartPrediction: the parity estimate the real engine is compared
// against must be internally consistent, and a mid-map crash must both
// re-attach journaled maps and re-run unjournaled attempts.
func TestRestartPrediction(t *testing.T) {
	est := KillPrediction(KillCoordinator, 1, 3, 0.4, simmr.Barrier)
	if est.Base <= 0 || est.Disturbed < est.Base-1e-9 {
		t.Fatalf("incoherent estimate: %+v", est)
	}
	if est.Overhead < 0 {
		t.Fatalf("negative predicted overhead: %+v", est)
	}
	if est.ReattachedMaps < 1 {
		t.Fatalf("mid-map crash re-attached nothing: %+v", est)
	}
}

// TestSpeculationCostOnIdenticalNodes states what the one speculation rule
// (exec's: three quarters of the wave done, a slot with nothing pending)
// costs where there is no straggler to rescue. The rule has no clock, so it
// cannot tell a healthy tail-wave map from an overdue one: on three
// identical workers it clones four maps of the last wave, the clones share
// disks with their originals, and the 1 GB WordCount finishes 1.35% later in
// barrier mode and 1.39% later pipelined. "Speculation never slows a
// homogeneous run" is withdrawn (DESIGN §11); the cost is pinned under 2%.
func TestSpeculationCostOnIdenticalNodes(t *testing.T) {
	for _, mode := range []simmr.Mode{simmr.Barrier, simmr.Pipelined} {
		run := func(speculative bool) *simmr.Result {
			spec := killSpec(1, ParityWorkers, mode, speculative)
			spec.Cluster = PaperCluster()
			spec.Cluster.SpeedSpread = 0
			return Run(spec)
		}
		plain, spec := run(false), run(true)
		cost := spec.Completion/plain.Completion - 1
		t.Logf("%v: plain %.2fs, speculative %.2fs (%+.2f%%), %d clones launched, %d won",
			mode, plain.Completion, spec.Completion, 100*cost, spec.BackupsLaunched, spec.BackupsWon)
		if spec.BackupsLaunched == 0 {
			t.Fatalf("%v: no clone launched: the rule changed, restate this test", mode)
		}
		if cost > 0.02 {
			t.Fatalf("%v: speculation cost %.2f%% on identical nodes, stated bound 2%%", mode, 100*cost)
		}
	}
}
