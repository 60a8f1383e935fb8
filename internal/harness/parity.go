package harness

import (
	"fmt"
	"math"

	"blmr/internal/simmr"
)

// ParityRow is one sim ↔ real agreement claim: a ratio the simulator
// predicts, a real-engine test in internal/mpexec measures, and the band
// the two must agree within.
type ParityRow struct {
	Name string
	// Tolerance bounds |measured - predicted|, in absolute points of the
	// ratio. The bands are stated, not tuned, and wide on purpose: the
	// simulator predicts a calibrated multi-GB cluster in clean virtual
	// time, while the real run is a laptop-scale 3-worker job whose wall
	// clock carries process, socket and per-job set-up noise. They still
	// reject sign errors and runaway recovery (a kill doubling the job, a
	// resume re-executing the map wave the journal says to re-attach) and
	// policies that fail to separate when the model predicts a near-halving.
	Tolerance float64
	// Predict runs the simulation: the predicted ratio, plus what else the
	// run showed, for the test's log.
	Predict func() (predicted float64, detail string, err error)
}

// The canonical experiments every row predicts and its real-engine test
// must mirror: a 3-worker pool, a kill at ParityKillFrac of the undisturbed
// run, and for placement the skewed stream of ParityStream map counts
// arriving together.
const (
	ParityWorkers  = 3
	ParityKillFrac = 0.4
)

var ParityStream = []int{1, 1, 4}

// Parity is the table of every sim ↔ real claim the repo makes.
var Parity = []ParityRow{
	// The relative recovery overhead (disturbed/undisturbed - 1) of losing
	// worker 0, and of a coordinator crash-restart.
	{Name: "worker-kill", Tolerance: 0.75, Predict: func() (float64, string, error) {
		est := KillPrediction(KillWorker, 1, ParityWorkers, ParityKillFrac, simmr.Barrier)
		return est.Overhead, fmt.Sprintf("lost=%d", est.LostMaps), nil
	}},
	{Name: "coord-restart", Tolerance: 0.75, Predict: func() (float64, string, error) {
		est := KillPrediction(KillCoordinator, 1, ParityWorkers, ParityKillFrac, simmr.Barrier)
		return est.Overhead, fmt.Sprintf("reattach=%d retried=%d", est.ReattachedMaps, est.Retried), nil
	}},
	// The least-loaded / round-robin makespan ratio on the skewed stream:
	// below 1 means the load-aware policy wins.
	{Name: "policy", Tolerance: 0.35, Predict: func() (float64, string, error) {
		rr, err := PolicyStreamMakespan(ParityStream, ParityWorkers, "round-robin")
		if err != nil {
			return 0, "", err
		}
		ll, err := PolicyStreamMakespan(ParityStream, ParityWorkers, "least-loaded")
		return ll / rr, fmt.Sprintf("round-robin %.2fs, least-loaded %.2fs", rr, ll), err
	}},
}

// CheckParity is the one band check: it runs the named row's prediction and
// compares measured against it. The report reads the same for every row; the
// error is non-nil when the two disagree beyond the row's tolerance.
func CheckParity(name string, measured float64) (report string, err error) {
	for _, row := range Parity {
		if row.Name != name {
			continue
		}
		pred, detail, err := row.Predict()
		if err != nil {
			return "", err
		}
		report = fmt.Sprintf("%s: measured %.2f, predicted %.2f (%s), tolerance %.2f", name, measured, pred, detail, row.Tolerance)
		if diff := math.Abs(measured - pred); diff > row.Tolerance {
			err = fmt.Errorf("sim and real disagree beyond the stated tolerance: |%.2f - %.2f| = %.2f > %.2f", measured, pred, diff, row.Tolerance)
		}
		return report, err
	}
	return "", fmt.Errorf("harness: no parity row %q", name)
}
