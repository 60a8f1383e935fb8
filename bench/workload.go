package main

import (
	"fmt"
	"slices"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mr"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	// smoke shrinks inputs to 1/50 and runs two jobs: enough to prove the
	// harness is wired, not a measurement.
	smoke bool
	// rec is nil for the timed run that yields the end-to-end metrics and
	// non-nil for the separate traced run that yields the per-layer ones.
	rec *recorder
	// pid is the workload's Chrome-trace process row.
	pid int
	// tmp holds the run's spill, state and journal directories.
	tmp string
}

// scale shrinks an input size under -smoke.
func (c runConfig) scale(n int) int {
	if c.smoke {
		return max(1, n/50)
	}
	return n
}

// floor is the least number of jobs (or rounds) a timed span may hold.
func (c runConfig) floor(n int) int {
	if c.smoke {
		return 2
	}
	return n
}

func (c runConfig) measureFor() time.Duration {
	if c.smoke {
		return 0
	}
	return time.Duration(c.seconds * float64(time.Second))
}

// jobFor builds the engine job for a paper app.
func jobFor(app apps.App) exec.Job {
	return exec.Job{Name: app.Name, Mapper: app.Mapper, NewGroup: app.NewGroup,
		NewStream: app.NewStream, Merger: app.Merger}
}

// resolveApp is the job registry worker subprocesses and the journaled
// service resolve names through: the paper apps only, by name.
func resolveApp(name string) (exec.Job, bool) {
	switch name {
	case "wordcount":
		return jobFor(apps.WordCount()), true
	case "sort":
		return jobFor(apps.Sort()), true
	}
	return exec.Job{}, false
}

// jobSpec is one job the benchmark submits, with the output it must produce.
type jobSpec struct {
	arm   string
	job   exec.Job
	input []core.Record
	opts  exec.Options
	// ref is the reference output: verbatim for barrier jobs (checked byte
	// for byte), (key, value)-sorted for pipelined jobs (checked as a
	// multiset, because pipelined output order follows arrival order).
	ref []core.Record
}

func (s *jobSpec) verify(out []core.Record) bool {
	if s.opts.Mode == exec.Barrier {
		return slices.Equal(out, s.ref)
	}
	return multisetEqual(out, s.ref)
}

// reference computes a spec's reference output with one in-process barrier
// mr.Run, the engine's classic path.
func reference(job exec.Job, input []core.Record, opts exec.Options) ([]core.Record, error) {
	opts.Mode = exec.Barrier
	res, err := mr.Run(job, input, opts)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return res.Output, nil
}

// sample is one timed job.
type sample struct {
	arm string
	// wall is what the caller saw: call (or Submit) until the result
	// returned. The clock stops before verification.
	wall    time.Duration
	res     *mr.Result // Output dropped after verification
	ok      bool       // no error and output equal to the reference
	records int        // input records
}

// timedSpan is a workload's measured jobs. span is the time they took:
// the sum of their walls when they ran back to back, the makespan when
// submitters overlapped.
type timedSpan struct {
	samples []sample
	span    time.Duration
}

// finished verifies one finished job against its reference and returns its
// sample, dropping the output the result carried.
func finished(spec *jobSpec, wall time.Duration, res *mr.Result, err error) sample {
	s := sample{arm: spec.arm, wall: wall, records: len(spec.input)}
	if err == nil {
		s.ok = spec.verify(res.Output)
		res.Output = nil
		s.res = res
	}
	return s
}

// walls returns the walls, in seconds, of the verified jobs of one arm (""
// for every arm).
func (ts timedSpan) walls(arm string) []float64 {
	var out []float64
	for _, s := range ts.samples {
		if s.ok && (arm == "" || s.arm == arm) {
			out = append(out, s.wall.Seconds())
		}
	}
	return out
}

// resultMedian is the median over one arm's verified jobs of a value read
// from each job's mr.Result.
func (ts timedSpan) resultMedian(arm string, f func(*mr.Result) float64) float64 {
	var xs []float64
	for _, s := range ts.samples {
		if s.ok && (arm == "" || s.arm == arm) {
			xs = append(xs, f(s.res))
		}
	}
	return median(xs)
}

// workloadRun is one workload's life cycle.
type workloadRun interface {
	// setup generates inputs and references, starts whatever the workload
	// runs on, and runs the warm-up jobs. It is what setup_s times.
	setup() error
	// teardown stops everything setup started; safe to call repeatedly.
	teardown()
	// measure runs timed jobs for the configured seconds (and at least the
	// workload's floor) and returns them.
	measure() timedSpan
	// primaryArm names the arm job_wall_s watches ("" for every job).
	primaryArm() string
	// layers adds the workload's per-layer metrics to a traced run's
	// report, counting any extra jobs it runs as attempted / failed.
	layers(r *report, ts timedSpan) error
}

func newWorkload(name string, cfg runConfig) (workloadRun, error) {
	switch name {
	case "wc_inproc":
		return newWCInProc(cfg), nil
	case "sort_tcp_delta":
		return newSortTCPDelta(cfg), nil
	case "cluster_wc":
		return &clusterWC{cfg: cfg}, nil
	case "service_stream":
		return &serviceStream{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setupRepeats is how many times a timed run sets up, so that setup_s is a
// median like every other timing.
const setupRepeats = 3

// runWorkload runs one workload once and reports its metrics: end-to-end
// ones when cfg.rec is nil, per-layer ones otherwise.
func runWorkload(name string, cfg runConfig) (*report, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	r := &report{workload: name, traced: cfg.rec != nil, metrics: map[string]metricValue{}}
	repeats := setupRepeats
	if r.traced || cfg.smoke {
		repeats = 1 // setup_s is not reported from these runs
	}
	defer w.teardown()
	var setups []float64
	for range repeats {
		w.teardown()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	cost := startProcCost()
	ts := w.measure()
	records := 0
	for _, s := range ts.samples {
		r.attempted++
		if !s.ok {
			r.failed++
			continue
		}
		records += s.records
	}
	if r.traced {
		cost.report(r, len(ts.samples))
		if err := w.layers(r, ts); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", name, err)
		}
	} else {
		all, primary := ts.walls(""), ts.walls(w.primaryArm())
		r.set("setup_s", median(setups), len(setups))
		r.set("job_wall_s", median(primary), len(primary))
		r.set("submit_p50_ms", median(all)*1e3, len(all))
		if ts.span > 0 {
			r.set("records_per_s", float64(records)/ts.span.Seconds(), len(all))
		}
		if p := highestPercentile(len(all)); p > 50 {
			r.notes = append(r.notes, fmt.Sprintf("caller-observed job wall p%g = %.4g ms: the highest percentile with at least ten of the %d jobs beyond it",
				p, percentile(all, p)*1e3, len(all)))
		} else {
			r.notes = append(r.notes, fmt.Sprintf("%d jobs support no percentile above the median (fewer than ten would lie beyond it)", len(all)))
		}
	}
	r.correct = r.failed == 0 && r.attempted > 0
	return r, nil
}
