// Command bench is the repository's one benchmark: four named workloads run
// against the public functions of mr, exec, shuffle, codec, sortx, wal and
// mpexec, every job's output verified against a reference, end-to-end
// metrics measured with tracing off and per-layer metrics from a separate
// traced run. README.md in this directory has the workload and metric
// tables; BENCHMARK.json at the repository root has the driver's contract.
//
//	bash bench/run.sh                         every workload, every metric
//	bash bench/run.sh -workload cluster_wc -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh -selfcheck              two full passes must agree
//	bash bench/run.sh -smoke                  1/50-size inputs, two jobs each
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// buildDir is the one directory, relative to the working directory, that
// everything the benchmark writes goes under.
const buildDir = ".bench_build"

func main() {
	if runWorker(os.Args[1:]) {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     string
	smoke     bool
	selfcheck bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its metrics as one JSON line (default: every workload, untraced then traced)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs and job sequence")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures")
	fs.StringVar(&o.trace, "trace", "", "with -workload: 0 = timed run, end-to-end metrics; 1 or a file path = traced run, per-layer metrics. The Chrome trace goes to the path (default "+buildDir+"/trace.json)")
	fs.BoolVar(&o.smoke, "smoke", false, "1/50-size inputs and two jobs per workload: checks the wiring, measures nothing")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and exit non-zero unless the two passes agree within the bounds and on every exact count")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// One temp root for spill runs, state directories and journals, inside
	// the build directory and removed at exit. TMPDIR points the engine's
	// own os.MkdirTemp calls — ours and the worker subprocesses' — there.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	abs, err := filepath.Abs(buildDir)
	if err == nil {
		abs, err = os.MkdirTemp(abs, "run-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(abs)
	os.Setenv("TMPDIR", abs)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs // workers notice the parent is gone and exit on their own
		os.RemoveAll(abs)
		os.Exit(130)
	}()

	b := &bench{o: o, tmp: abs, stdout: stdout, stderr: stderr}
	switch {
	case o.selfcheck:
		return b.selfcheck()
	case o.workload != "":
		return b.single()
	default:
		_, code := b.pass()
		return code
	}
}

// bench is one invocation.
type bench struct {
	o      options
	tmp    string
	rec    *recorder // shared by every traced run of the invocation
	stdout io.Writer
	stderr io.Writer
}

func (b *bench) tracePath() string {
	if b.o.trace == "" || b.o.trace == "1" {
		return filepath.Join(buildDir, "trace.json")
	}
	return b.o.trace
}

// runOne runs one workload, traced or not, in a temp directory of its own.
func (b *bench) runOne(name string, traced bool) (*report, error) {
	tmp, err := os.MkdirTemp(b.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{seed: b.o.seed, seconds: b.o.seconds, smoke: b.o.smoke,
		pid: 1 + slices.Index(workloadNames, name), tmp: tmp}
	if traced {
		if b.rec == nil {
			b.rec = newRecorder()
		}
		cfg.rec = b.rec
	}
	return runWorkload(name, cfg)
}

// writeTrace writes the invocation's spans, if any traced run recorded some.
func (b *bench) writeTrace() error {
	if b.rec == nil {
		return nil
	}
	path := b.tracePath()
	if err := b.rec.writeChromeTrace(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(b.stderr, "bench: Chrome trace written to %s\n", path)
	return nil
}

// single is the driver's entry: one workload, one mode, one JSON line last.
func (b *bench) single() int {
	r, err := b.runOne(b.o.workload, b.o.trace != "" && b.o.trace != "0")
	if err == nil {
		err = b.writeTrace()
	}
	if err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 1
	}
	b.print(r)
	if !r.correct {
		return 1
	}
	return 0
}

// pass runs every workload untraced and then traced, printing every metric.
func (b *bench) pass() ([]*report, int) {
	var reports []*report
	code := 0
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, err := b.runOne(name, traced)
			if err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				return reports, 1
			}
			b.print(r)
			if !r.correct {
				code = 1
			}
			reports = append(reports, r)
		}
	}
	if err := b.writeTrace(); err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return reports, 1
	}
	return reports, code
}

// print writes a report for people (one metric per line, with unit and
// sample count) and then for the driver (one JSON object on the last line).
func (b *bench) print(r *report) {
	mode := "timed run, tracing off"
	if r.traced {
		mode = "traced run"
	}
	fmt.Fprintf(b.stdout, "# %s (%s): %d jobs attempted, %d failed\n", r.workload, mode, r.attempted, r.failed)
	for _, note := range r.notes {
		fmt.Fprintf(b.stdout, "# %s\n", note)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range r.defs() {
		v := r.metrics[d.name]
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			v.value = 0
		}
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("  (n=%d)", v.n)
		}
		fmt.Fprintf(b.stdout, "%-28s %16.6g %-6s%s\n", d.name, v.value, d.unit, n)
		metrics[d.name] = jsonMetric{v.value, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	fmt.Fprintf(b.stdout, "%s\n", line)
}

// selfcheck runs two full passes and fails unless they agree: every
// end-to-end metric within its bound, every exact count bit-equal on the
// in-process workloads.
func (b *bench) selfcheck() int {
	first, code := b.pass()
	if code != 0 {
		return code
	}
	second, code := b.pass()
	if code != 0 {
		return code
	}
	bad := disagreements(first, second)
	for _, msg := range bad {
		fmt.Fprintln(b.stdout, "selfcheck:", msg)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Fprintln(b.stdout, "selfcheck: the two passes agree")
	return 0
}

// inProcess names the workloads whose counts must repeat exactly: with
// worker subprocesses, scheduling decides how many dials and fetches a job
// makes.
var inProcess = []string{"wc_inproc", "sort_tcp_delta"}

// disagreements compares two passes report by report.
func disagreements(first, second []*report) []string {
	var bad []string
	for i, a := range first {
		c := second[i]
		if !a.traced {
			for _, d := range endToEnd {
				x, y := a.metrics[d.name].value, c.metrics[d.name].value
				worse := (y - x) / x
				if d.higher {
					worse = (x - y) / x
				}
				if math.Abs(worse) > d.bound {
					bad = append(bad, fmt.Sprintf("%s %s: %g then %g %s, %.1f%% apart (bound %.0f%%)",
						a.workload, d.name, x, y, d.unit, 100*math.Abs(worse), 100*d.bound))
				}
			}
			continue
		}
		if !slices.Contains(inProcess, a.workload) {
			continue
		}
		for _, name := range exactCounts {
			if x, y := a.metrics[name].value, c.metrics[name].value; x != y {
				bad = append(bad, fmt.Sprintf("%s %s: %v then %v, must be equal", a.workload, name, x, y))
			}
		}
	}
	return bad
}
