package harness

import "testing"

// TestOverlapSweepMonotone: breaking the stage barrier is never slower in
// the simulator — for every (app, mode, worker count), the overlapped
// control plane completes no later than the staged one. This is the
// simulated counterpart of the mpexec acceptance criterion (pipelined-TCP
// beating barrier-TCP once reduce dispatch overlaps the map wave).
func TestOverlapSweepMonotone(t *testing.T) {
	const slack = 1.0 + 1e-9
	for _, app := range []string{"wordcount", "sort"} {
		sw := goldenSweep(t, "overlap-"+app)
		if len(sw.Series) != 4 {
			t.Fatalf("want 4 series, got %d", len(sw.Series))
		}
		// Series come in (staged, overlap) pairs per mode.
		for pair := 0; pair < 2; pair++ {
			staged, overlap := sw.Series[2*pair], sw.Series[2*pair+1]
			for i := range staged.Y {
				if staged.Note[i] != "" || overlap.Note[i] != "" {
					t.Fatalf("%s/%s at %d workers failed: %q %q", staged.Label,
						overlap.Label, int(staged.X[i]), staged.Note[i], overlap.Note[i])
				}
				if overlap.Y[i] > staged.Y[i]*slack {
					t.Fatalf("%s: overlap slower than staged at %d workers: %.2fs vs %.2fs",
						app, int(staged.X[i]), overlap.Y[i], staged.Y[i])
				}
			}
		}
		t.Log("\n" + sw.Render())
	}
}
