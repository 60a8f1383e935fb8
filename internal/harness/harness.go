// Package harness reproduces every table and figure of the paper's
// evaluation (Section 6). Each Fig*/Table* function builds the workload,
// runs the simulated cluster in the relevant configurations, and returns
// both structured data and a rendered text report.
//
// Calibration: the simulator is not the authors' testbed, so absolute
// seconds differ; cost rates are tuned so the *shape* of each result (who
// wins, by what factor, where crossovers fall) matches the paper. The
// Calib* cost models are per application: they say what the application's
// map, reduce and sort work costs and leave the testbed's own rates (spill
// seeks, fetch RPCs, codec speed, coordinator restart) at zero, which Run
// fills from simmr.DefaultCosts. A sweep is one call of grid, except
// KillSweep and PolicySweep, which say why they are not.
package harness

import (
	"fmt"
	"strings"

	"blmr/internal/apps"
	"blmr/internal/cluster"
	"blmr/internal/core"
	"blmr/internal/simmr"
	"blmr/internal/workload"
)

// GB is one virtual gigabyte.
const GB = float64(1 << 30)

// PaperCluster mirrors the testbed: 15 workers, 4 map + 4 reduce slots
// each, GigE, moderately oversubscribed core, mild heterogeneity.
func PaperCluster() cluster.Config {
	cfg := cluster.Default()
	return cfg
}

// Dataset is input data plus its virtual scaling.
type Dataset struct {
	Splits      [][]core.Record
	ByteScale   float64 // virtual bytes per real byte
	RecordScale float64 // virtual records per real record
}

// chunkMB is the DFS chunk size (paper: 64 MB).
const chunkMB = 64.0

// makeDataset splits records into 64MB virtual chunks totaling sizeGB and
// computes the scale factors. virtRecords is the virtual record count the
// real records stand for.
func makeDataset(recs []core.Record, sizeGB float64, virtRecords float64) Dataset {
	realBytes := float64(core.RecordsSize(recs))
	if realBytes == 0 {
		realBytes = 1
	}
	byteScale := sizeGB * GB / realBytes
	recScale := 1.0
	if len(recs) > 0 {
		recScale = virtRecords / float64(len(recs))
	}
	chunks := int(sizeGB*1024/chunkMB + 0.5)
	if chunks < 1 {
		chunks = 1
	}
	return Dataset{
		Splits:      workload.SplitEvenly(recs, chunks),
		ByteScale:   byteScale,
		RecordScale: recScale,
	}
}

// RunSpec is one simulated run: the job, plus the two things a
// simmr.JobSpec cannot say, the data it reads and the testbed it runs on.
type RunSpec struct {
	// JobSpec is the job and how it executes. Byte quantities (HeapBudget,
	// SpillThreshold, SpillBytes) are virtual bytes; the testbed rates
	// Costs leaves zero are filled by Run.
	simmr.JobSpec
	Data Dataset
	// Cluster is the simulated datacenter (zero = PaperCluster).
	Cluster cluster.Config
	// Replication overrides the DFS replication factor (default 3).
	Replication int
	// FetchParallelism overrides the barrier-mode parallel copies (default 5).
	FetchParallelism int
}

// Run executes a RunSpec on a fresh engine.
func Run(spec RunSpec) *simmr.Result {
	if spec.Cluster.Nodes == 0 {
		spec.Cluster = PaperCluster()
	}
	eng := simmr.NewEngine(simmr.Config{
		Cluster:          spec.Cluster,
		Replication:      spec.Replication,
		ByteScale:        spec.Data.ByteScale,
		RecordScale:      spec.Data.RecordScale,
		FetchParallelism: spec.FetchParallelism,
	})
	spec.Costs = withTestbedRates(spec.Costs)
	return eng.Run(spec.JobSpec, eng.Ingest(spec.Name+".in", spec.Data.Splits))
}

// withTestbedRates fills the cost rates that describe the testbed rather
// than the application — the per-run seek, the fetch RPC, the codec speed,
// the coordinator's restart outage and per-map re-attach — from
// simmr.DefaultCosts wherever c leaves them zero. A run pays each only when
// it turns the feature on (a spill budget, a run-exchange transport, a
// codec, a coordinator kill), so filling them changes no other run. The
// all-zero model stays all-zero: simmr reads it as "use DefaultCosts".
func withTestbedRates(c simmr.CostModel) simmr.CostModel {
	if c == (simmr.CostModel{}) {
		return c
	}
	def := simmr.DefaultCosts()
	if c.SpillRunDelay == 0 {
		c.SpillRunDelay = def.SpillRunDelay
	}
	if c.RunFetchDelay == 0 {
		c.RunFetchDelay = def.RunFetchDelay
	}
	if c.CompressDelay == 0 {
		c.CompressDelay = def.CompressDelay
	}
	if c.CoordRestartDelay == 0 {
		c.CoordRestartDelay = def.CoordRestartDelay
	}
	if c.ReattachPerMap == 0 {
		c.ReattachPerMap = def.ReattachPerMap
	}
	return c
}

// Series is one curve of a sweep: Y seconds at each X.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Note[i] annotates point i ("OOM" for killed jobs, where Y is the
	// time of death).
	Note []string
}

// Sweep is a rendered experiment: several curves over a shared x-axis.
type Sweep struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// curve is one series of a grid: its label, and what it changes in the
// x's base spec.
type curve struct {
	label string
	set   func(*RunSpec)
}

// modeCurves is the pair most sweeps compare, both execution modes, under
// the labels the sweep prints.
func modeCurves(barrier, pipelined string) []curve {
	return []curve{
		{barrier, func(s *RunSpec) { s.Mode = simmr.Barrier }},
		{pipelined, func(s *RunSpec) { s.Mode = simmr.Pipelined }},
	}
}

// baseSpec is the spec nearly every experiment starts from: app over ds
// with its calibration, on the paper cluster with the in-memory store.
func baseSpec(app apps.App, ds Dataset, costs simmr.CostModel, reducers int) RunSpec {
	return RunSpec{JobSpec: simmr.JobSpec{Job: app, Reducers: reducers, Costs: costs}, Data: ds}
}

// grid is the one loop behind every Run-based sweep: at each x it builds
// base(x) once, runs a copy of it under every curve, and records the
// completion time, with note's annotation of the run ("" = none), in that
// curve's series of sw.
func grid(sw Sweep, xs []float64, base func(x float64) RunSpec, note func(RunSpec, *simmr.Result) string, curves []curve) Sweep {
	sw.Series = make([]Series, len(curves))
	for i, c := range curves {
		sw.Series[i].Label = c.label
	}
	for _, x := range xs {
		b := base(x)
		for i, c := range curves {
			spec := b
			c.set(&spec)
			res := Run(spec)
			ser := &sw.Series[i]
			ser.X = append(ser.X, x)
			ser.Y = append(ser.Y, res.Completion)
			ser.Note = append(ser.Note, note(spec, res))
		}
	}
	return sw
}

// floats widens a sweep's integer x values (worker counts) for grid.
func floats(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// failedAs annotates a failed run with word (an out-of-memory kill is the
// only way a Figure 6-10 run fails; "FAILED" covers the rest).
func failedAs(word string) func(RunSpec, *simmr.Result) string {
	return func(_ RunSpec, res *simmr.Result) string {
		if res.Failed {
			return word
		}
		return ""
	}
}

// Render formats the sweep as the textual equivalent of the paper's plot.
func (s Sweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", s.ID, s.Title)
	fmt.Fprintf(&b, "%-18s", s.XLabel)
	for _, ser := range s.Series {
		fmt.Fprintf(&b, " %18s", ser.Label)
	}
	b.WriteByte('\n')
	if len(s.Series) == 0 {
		return b.String()
	}
	for i := range s.Series[0].X {
		fmt.Fprintf(&b, "%-18.4g", s.Series[0].X[i])
		for _, ser := range s.Series {
			cell := fmt.Sprintf("%.1f", ser.Y[i])
			if len(ser.Note) > i && ser.Note[i] != "" {
				cell += " (" + ser.Note[i] + ")"
			}
			fmt.Fprintf(&b, " %18s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MeanImprovement averages 100*(base-with)/base across the sweep points of
// two series (skipping failed points).
func MeanImprovement(base, with Series) float64 {
	var sum float64
	n := 0
	for i := range base.Y {
		if len(base.Note) > i && base.Note[i] != "" {
			continue
		}
		if len(with.Note) > i && with.Note[i] != "" {
			continue
		}
		sum += 100 * (base.Y[i] - with.Y[i]) / base.Y[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Improvements returns the per-point improvement percentages.
func Improvements(base, with Series) []float64 {
	var out []float64
	for i := range base.Y {
		out = append(out, 100*(base.Y[i]-with.Y[i])/base.Y[i])
	}
	return out
}
