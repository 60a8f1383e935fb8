package harness

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/simmr"
)

// KillTarget says which process a simulated kill takes out — the one thing
// the worker-churn and the coordinator-restart experiments differ in.
type KillTarget int

const (
	// KillWorker kills pool worker 0: its published map outputs are lost,
	// the scheduler core re-executes them on survivors and parked fetchers
	// re-route.
	KillWorker KillTarget = iota
	// KillCoordinator crashes the control plane: it goes dark for the
	// restart window, journaled maps re-attach from surviving sealed runs
	// and unjournaled attempts re-run.
	KillCoordinator
)

func (k KillTarget) String() string {
	if k == KillCoordinator {
		return "the coordinator"
	}
	return "worker 0"
}

// at arms spec's kill of this target at virtual time t.
func (k KillTarget) at(spec RunSpec, t float64) RunSpec {
	if k == KillCoordinator {
		spec.KillCoordinatorAt = t
	} else {
		spec.KillWorkerAt = t
	}
	return spec
}

// KillEstimate is one simulated kill experiment: the undisturbed
// completion, the disturbed run's, and the relative recovery overhead
// (Disturbed/Base - 1).
type KillEstimate struct {
	Base      float64
	Disturbed float64
	Overhead  float64
	// LostMaps is how many published map outputs a worker kill cost (each
	// was re-executed on a survivor).
	LostMaps int
	// ReattachedMaps is how many journaled map outputs a restarted
	// coordinator re-attached from surviving sealed runs instead of
	// re-executing.
	ReattachedMaps int
	// Retried is how many map attempts the kill cost.
	Retried int
}

// killSpec is the kill experiments' canonical job: WordCount on a small TCP
// worker pool, the configuration the real chaos and crash-restart tests
// exercise.
func killSpec(sizeGB float64, workers int, mode simmr.Mode, speculative bool) RunSpec {
	spec := baseSpec(apps.WordCount(), WordCountData(sizeGB), CalibWordCount, 8)
	spec.Mode, spec.Speculative = mode, speculative
	spec.Workers, spec.Transport = workers, simmr.TCPRunExchange
	return spec
}

// KillPrediction simulates killing target at killFrac of the undisturbed
// completion time and returns the predicted recovery overhead — the number
// a real-engine parity test compares its measured overhead against (see
// Parity).
func KillPrediction(target KillTarget, sizeGB float64, workers int, killFrac float64, mode simmr.Mode) KillEstimate {
	spec := killSpec(sizeGB, workers, mode, false)
	base := Run(spec)
	hit := Run(target.at(spec, base.Completion*killFrac))
	return KillEstimate{
		Base:           base.Completion,
		Disturbed:      hit.Completion,
		Overhead:       hit.Completion/base.Completion - 1,
		LostMaps:       hit.LostMapOutputs,
		ReattachedMaps: hit.ReattachedMaps,
		Retried:        hit.MapRetries,
	}
}

// KillSweep sweeps the kill time over the job (killFracs are fractions of
// the undisturbed completion) on a `workers`-node pool and reports
// completion for both modes; recovery overhead is each point against the
// frac=0 baseline. A worker kill is swept with and without speculative
// backups — on the paper cluster's skewed nodes the speculative series
// must never sit above its plain counterpart (clones only take slots with
// nothing pending; what they cost on identical nodes is
// TestSpeculationCostOnIdenticalNodes) — and notes how many map outputs
// each point lost. A coordinator
// kill notes how many journaled maps re-attached: the later the crash, the
// more of the map wave survives as sealed runs and the closer the resumed
// completion stays to base + CoordRestartDelay.
//
// The sweep keeps its own loop: every point's kill time is a fraction of its
// own series' undisturbed completion, which grid's curves (a function of the
// spec alone) cannot express.
func KillSweep(target KillTarget, sizeGB float64, workers int, killFracs []float64) Sweep {
	sw := Sweep{
		ID:     "KillSweep",
		Title:  fmt.Sprintf("WordCount %.3ggb, %d workers over TCP: completion vs when %s dies", sizeGB, workers, target),
		XLabel: "kill time (frac of base)",
	}
	variants := []bool{false, true}
	if target == KillCoordinator {
		variants = variants[:1] // speculation is a worker-churn question
	}
	for _, mode := range []simmr.Mode{simmr.Barrier, simmr.Pipelined} {
		for _, speculative := range variants {
			spec := killSpec(sizeGB, workers, mode, speculative)
			base := Run(spec)
			ser := Series{Label: mode.String()}
			if speculative {
				ser.Label += "+spec"
			}
			for _, frac := range killFracs {
				res := base
				if frac > 0 {
					res = Run(target.at(spec, base.Completion*frac))
				}
				note := ""
				switch {
				case res.Failed:
					note = "FAILED"
				case res.CoordRestarts > 0:
					note = fmt.Sprintf("reattach=%d", res.ReattachedMaps)
				case res.LostMapOutputs > 0:
					note = fmt.Sprintf("lost=%d", res.LostMapOutputs)
				}
				ser.X = append(ser.X, frac)
				ser.Y = append(ser.Y, res.Completion)
				ser.Note = append(ser.Note, note)
			}
			sw.Series = append(sw.Series, ser)
		}
	}
	return sw
}
