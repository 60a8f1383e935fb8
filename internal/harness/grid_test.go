package harness

import (
	"fmt"
	"slices"
	"testing"

	"blmr/internal/apps"
	"blmr/internal/simmr"
	"blmr/internal/workload"
)

// TestGrid: grid builds base(x) once per x, in x order; runs every curve on
// its own copy of it, in curve order; and files each run's completion and
// note in that curve's series at that x.
func TestGrid(t *testing.T) {
	ds := makeDataset(workload.Text(1, 200, 50, 6), 0.05, 1200)
	xs := []float64{2, 1, 3}
	var bases []float64
	var runs []string
	sw := grid(Sweep{ID: "g", Title: "T", XLabel: "reducers"}, xs,
		func(x float64) RunSpec {
			bases = append(bases, x)
			return baseSpec(apps.WordCount(), ds, CalibWordCount, int(x))
		},
		func(spec RunSpec, res *simmr.Result) string {
			if res.Failed || res.Completion <= 0 {
				t.Errorf("run %v failed: %s", spec.Reducers, res.FailReason)
			}
			runs = append(runs, fmt.Sprintf("%d/%v", spec.Reducers, spec.Speculative))
			return runs[len(runs)-1]
		},
		[]curve{
			{"speculative", func(s *RunSpec) { s.Speculative = true }},
			{"plain", func(*RunSpec) {}}, // must not see its neighbour's edit
		})

	if !slices.Equal(bases, xs) {
		t.Errorf("base called for %v, want once per x in order %v", bases, xs)
	}
	if want := []string{"2/true", "2/false", "1/true", "1/false", "3/true", "3/false"}; !slices.Equal(runs, want) {
		t.Errorf("runs %v, want %v", runs, want)
	}
	if sw.ID != "g" || sw.Title != "T" || sw.XLabel != "reducers" || len(sw.Series) != 2 {
		t.Fatalf("sweep header or series count lost: %+v", sw)
	}
	for i, ser := range sw.Series {
		if want := []string{"speculative", "plain"}[i]; ser.Label != want {
			t.Errorf("series %d labelled %q, want %q", i, ser.Label, want)
		}
		if !slices.Equal(ser.X, xs) || len(ser.Y) != len(xs) {
			t.Errorf("%s: X %v Y %v, want one point per x %v", ser.Label, ser.X, ser.Y, xs)
		}
		for j, x := range xs {
			if want := fmt.Sprintf("%d/%v", int(x), i == 0); ser.Note[j] != want {
				t.Errorf("%s: note at x=%v is %q, want %q", ser.Label, x, ser.Note[j], want)
			}
		}
	}
	// Y is the run's completion: the plain point at x=1 re-run on its own.
	if got, want := sw.Series[1].Y[1], Run(baseSpec(apps.WordCount(), ds, CalibWordCount, 1)).Completion; got != want {
		t.Errorf("plain series at x=1 holds %v, Run gives %v", got, want)
	}
}

// TestTestbedRates: Run's one defaulting rule fills the five testbed rates
// an application's calibration leaves zero, keeps what a caller set, touches
// no application rate, and leaves the all-zero model for simmr to default
// whole.
func TestTestbedRates(t *testing.T) {
	def := simmr.DefaultCosts()
	got := withTestbedRates(CalibKNN)
	want := CalibKNN
	want.SpillRunDelay, want.RunFetchDelay, want.CompressDelay = def.SpillRunDelay, def.RunFetchDelay, def.CompressDelay
	want.CoordRestartDelay, want.ReattachPerMap = def.CoordRestartDelay, def.ReattachPerMap
	if got != want {
		t.Errorf("CalibKNN became %+v, want %+v", got, want)
	}
	set := CalibSort
	set.RunFetchDelay = 7
	if got := withTestbedRates(set); got.RunFetchDelay != 7 || got.CompressDelay != CalibSort.CompressDelay {
		t.Errorf("a caller's rates were overwritten: %+v", got)
	}
	if got := withTestbedRates(simmr.CostModel{}); got != (simmr.CostModel{}) {
		t.Errorf("the zero model became %+v", got)
	}
}
