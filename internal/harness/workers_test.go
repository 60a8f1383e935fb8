package harness

import "testing"

// TestWorkerScalingSweep: the worker-count sweep runs clean and scaling the
// pool up never slows the job down.
func TestWorkerScalingSweep(t *testing.T) {
	sw := goldenSweep(t, "workers")
	if len(sw.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(sw.Series))
	}
	for _, ser := range sw.Series {
		for i := range ser.Y {
			if ser.Note[i] != "" {
				t.Fatalf("%s at %d workers: %s", ser.Label, int(ser.X[i]), ser.Note[i])
			}
			if i > 0 && ser.Y[i] > ser.Y[i-1]+1e-9 {
				t.Fatalf("%s: %d workers slower (%.1fs) than %d workers (%.1fs)",
					ser.Label, int(ser.X[i]), ser.Y[i], int(ser.X[i-1]), ser.Y[i-1])
			}
		}
	}
	t.Log("\n" + sw.Render())
}

// TestTransportOverheadSweep: the run exchange never meaningfully beats the
// in-process shuffle in the simulator's cost model. Tiny inversions are
// allowed: per-fetch delays reorder discrete events enough to move
// completion by a fraction of a percent either way.
func TestTransportOverheadSweep(t *testing.T) {
	const slack = 1.005
	sw := goldenSweep(t, "transport")
	for _, ser := range sw.Series {
		if len(ser.Y) != 2 {
			t.Fatalf("%s: want 2 transports, got %d", ser.Label, len(ser.Y))
		}
		if ser.Y[1]*slack < ser.Y[0] {
			t.Fatalf("%s: run exchange cheaper than in-process: %.1f / %.1f", ser.Label, ser.Y[0], ser.Y[1])
		}
	}
}
