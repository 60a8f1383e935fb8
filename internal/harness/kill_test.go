package harness

import (
	"strconv"
	"strings"
	"testing"

	"blmr/internal/simmr"
)

// TestFaultSweep: worker churn must cost time, never correctness, and
// speculation must never make the sweep slower — its clones only occupy
// otherwise idle slots.
func TestFaultSweep(t *testing.T) {
	sw := goldenSweep(t, "kill-worker")
	if len(sw.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(sw.Series))
	}
	for _, ser := range sw.Series {
		base := ser.Y[0]
		// Speculative runs get 1% slack: a kill can flip which attempt wins
		// the publish race, relocating that map's output and shifting
		// transfer contention slightly in either direction.
		slack := 1e-9
		if ser.Label == "barrier+spec" || ser.Label == "pipelined+spec" {
			slack = base * 0.01
		}
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
