package main

// The two in-process workloads: single jobs through mr.Run, back to back.

import (
	"fmt"
	"os"
	"time"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

// inproc is a workload of identical in-process jobs.
type inproc struct {
	cfg  runConfig
	name string
	// generate makes the input from the seed.
	generate func(seed uint64) []core.Record
	// refJob and refOpts compute the reference (always in barrier mode).
	refJob  exec.Job
	refOpts exec.Options
	// replay, when set, times single layers in isolation on the workload's
	// own input during the traced run.
	replay func(r *report, cfg runConfig, input []core.Record, opts exec.Options) error
	spec   jobSpec
}

const (
	inprocWarmups    = 2
	inprocFloor      = 10 // least timed jobs
	composedUntraced = 3  // hand-composed jobs checked against mr.Run before tracing
	tracedJobs       = 5
)

// newWCInProc is the barrier-less fast path: pipelined WordCount over the
// in-process batched channels, no spill, no compression.
func newWCInProc(cfg runConfig) *inproc {
	job := jobFor(apps.WordCount())
	// The reference takes the classic path and shares nothing with the
	// pipelined store and stream reducer under test; the combiner and the
	// spill budget only keep its map-side sorts small enough to afford.
	refJob := job
	refJob.Combiner = job.Merger
	return &inproc{
		cfg: cfg, name: "wc_inproc",
		generate: func(seed uint64) []core.Record {
			return workload.Text(seed, cfg.scale(1_000_000), 20_000, 4)
		},
		refJob:  refJob,
		refOpts: exec.Options{Mappers: 2, Reducers: 2, SpillBytes: 16 << 20},
		spec: jobSpec{job: job, opts: exec.Options{
			Mappers: 2, Reducers: 2, Mode: exec.Pipelined, Transport: shuffle.InProc}},
	}
}

// newSortTCPDelta is the sorting class over the sealed-run exchange: every
// input record is sorted, sealed (delta-compressed), served, fetched over
// loopback TCP, decoded and merged.
func newSortTCPDelta(cfg runConfig) *inproc {
	job := jobFor(apps.Sort())
	return &inproc{
		cfg: cfg, name: "sort_tcp_delta",
		generate: func(seed uint64) []core.Record {
			return workload.UniformKeys(seed, cfg.scale(1_000_000), 1<<40)
		},
		refJob:  job,
		refOpts: exec.Options{Mappers: 2, Reducers: 2},
		replay:  replaySortLayers,
		spec: jobSpec{job: job, opts: exec.Options{
			Mappers: 2, Reducers: 2, Mode: exec.Barrier, Transport: shuffle.TCP,
			Compression: codec.DeltaBlock, SpillBytes: int64(cfg.scale(4 << 20))}},
	}
}

func (w *inproc) primaryArm() string { return "" }

func (w *inproc) teardown() { w.spec.input, w.spec.ref = nil, nil }

func (w *inproc) setup() error {
	w.spec.input = w.generate(w.cfg.seed)
	ref, err := reference(w.refJob, w.spec.input, w.refOpts)
	if err != nil {
		return err
	}
	if w.spec.opts.Mode == exec.Pipelined {
		ref = sortedRecords(ref)
	}
	w.spec.ref = ref
	for i := range inprocWarmups {
		res, err := mr.Run(w.spec.job, w.spec.input, w.spec.opts)
		if err != nil {
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
		if !w.spec.verify(res.Output) {
			return fmt.Errorf("warm-up job %d: output differs from the reference", i)
		}
	}
	return nil
}

func (w *inproc) measure() timedSpan {
	var ts timedSpan
	floor, limit := w.cfg.floor(inprocFloor), w.cfg.measureFor()
	for i := 0; i < floor || ts.span < limit; i++ {
		t0 := time.Now()
		res, err := mr.Run(w.spec.job, w.spec.input, w.spec.opts)
		wall := time.Since(t0)
		ts.samples = append(ts.samples, finished(&w.spec, wall, res, err))
		ts.span += wall
	}
	return ts
}

// composedRun is mr.Run's composition — shuffle.New + exec.Scheduler +
// mr.Assemble, all public — rebuilt here so the traced run can put span
// wrappers between the layers. With jt nil it adds no wrapper and must
// behave exactly like mr.Run.
func composedRun(job exec.Job, input []core.Record, opts exec.Options, jt *jobTrace) (*mr.Result, error) {
	opts.Normalize()
	if err := mr.Validate(job, opts); err != nil {
		return nil, err
	}
	spillDir, err := mr.OpenSpillDir(opts)
	if err != nil {
		return nil, err
	}
	if spillDir != nil {
		defer spillDir.Close()
	}
	start := time.Now()
	maps := exec.SplitMaps(input, opts.Mappers)
	tr, err := shuffle.New(opts.Transport, shuffle.Config{
		Maps: len(maps), Parts: opts.Reducers,
		QueueCap: opts.QueueCap, BatchSize: opts.BatchSize,
		Dir: spillDir, MergeFanIn: opts.MergeFanIn,
		DecodeWorkers: opts.DecodeWorkers,
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	local := &exec.LocalWorker{Job: job, Opts: opts, Transport: tr, Scratch: spillDir}
	var worker exec.Worker = local
	if jt != nil {
		local.Transport = &tracedTransport{Transport: tr, jt: jt}
		worker = &tracedWorker{Worker: local, jt: jt}
	}
	sched := exec.Scheduler{
		Workers: []exec.Assignment{{W: worker, MapSlots: opts.Mappers, ReduceSlots: opts.Reducers}},
		OnFail:  tr.Fail,
	}
	sum, err := sched.Run(maps, exec.ReduceTasks(opts.Reducers))
	if err != nil {
		return nil, err
	}
	res := mr.Assemble(sum)
	if spillDir != nil {
		res.SpilledBytes = spillDir.SpilledBytes()
		res.CompressedSpillBytes = spillDir.SpilledBytes()
		res.RawSpillBytes = spillDir.RawSpilledBytes()
	}
	if dc, ok := tr.(interface{ FetchDials() int64 }); ok {
		res.FetchDials = dc.FetchDials()
	}
	if so, ok := tr.(interface{ ServerOpens() int64 }); ok {
		res.ServerOpens = so.ServerOpens()
	}
	res.Wall = time.Since(start)
	return res, nil
}

// sameCounts reports whether two executions moved the same data: the counts
// that repeat exactly for a fixed input on the in-process engine.
func sameCounts(a, b *mr.Result) bool {
	return a.ShuffleRecords == b.ShuffleRecords && a.Spills == b.Spills &&
		a.RawSpillBytes == b.RawSpillBytes && a.SpilledBytes == b.SpilledBytes &&
		a.FetchBytes == b.FetchBytes && a.MergePasses == b.MergePasses
}

// composed runs n hand-composed jobs (traced when traced is set), verifies
// each against the reference and against want — an mr.Run result of the
// same job, whose counts a faithful composition must reproduce even with
// the span wrappers in the way — and counts them in the report.
func (w *inproc) composed(r *report, want *mr.Result, n int, traced bool) (timedSpan, []layerTimes, error) {
	var ts timedSpan
	var layers []layerTimes
	for range n {
		var jt *jobTrace
		if traced {
			jt = w.cfg.rec.newJobTrace(w.cfg.pid, w.name, w.spec.opts.Mappers)
		}
		t0 := time.Now()
		res, err := composedRun(w.spec.job, w.spec.input, w.spec.opts, jt)
		wall := time.Since(t0)
		if jt != nil {
			jt.close()
			lt := jt.layerTimes()
			if lt.accounted != lt.taskTotal {
				return ts, nil, fmt.Errorf("span accounting: self + waits = %v but task spans total %v", lt.accounted, lt.taskTotal)
			}
			layers = append(layers, lt)
		}
		s := finished(&w.spec, wall, res, err)
		if s.ok && !sameCounts(s.res, want) {
			return ts, nil, fmt.Errorf("hand-composed run (traced=%v) moved different data than mr.Run: %+v vs %+v", traced, *s.res, *want)
		}
		ts.samples = append(ts.samples, s)
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	return ts, layers, nil
}

func (w *inproc) layers(r *report, timed timedSpan) error {
	walls := timed.walls("")
	resultMetric := func(name string, f func(*mr.Result) float64) {
		r.set(name, timed.resultMedian("", f), len(walls))
	}
	resultMetric("exec.map_wall_s", func(res *mr.Result) float64 { return res.MapWall.Seconds() })
	resultMetric("exec.reduce_tail_s", func(res *mr.Result) float64 { return (res.Wall - res.MapWall).Seconds() })
	resultMetric("shuffle.records", func(res *mr.Result) float64 { return float64(res.ShuffleRecords) })
	resultMetric("shuffle.waves", func(res *mr.Result) float64 { return float64(res.Spills) })
	resultMetric("shuffle.raw_bytes", func(res *mr.Result) float64 { return float64(res.RawSpillBytes) })
	resultMetric("shuffle.sealed_bytes", func(res *mr.Result) float64 { return float64(res.SpilledBytes) })
	resultMetric("shuffle.fetch_bytes", func(res *mr.Result) float64 { return float64(res.FetchBytes) })
	resultMetric("shuffle.fetch_dials", func(res *mr.Result) float64 { return float64(res.FetchDials) })
	resultMetric("shuffle.server_opens", func(res *mr.Result) float64 { return float64(res.ServerOpens) })
	resultMetric("sortx.merge_passes", func(res *mr.Result) float64 { return float64(res.MergePasses) })
	resultMetric("store.peak_partial_bytes", func(res *mr.Result) float64 { return float64(res.PeakPartialBytes) })

	// Before tracing: the hand-composed run must produce mr.Run's output
	// (composed verifies it) at mr.Run's cost. The cost is reported, and
	// flagged on stderr beyond the job_wall_s bound, rather than failed: a
	// median of three jobs on a shared two-core host strays past the bound
	// too often to gate correctness on.
	untraced := median(walls)
	var want *mr.Result
	for _, s := range timed.samples {
		if s.ok {
			want = s.res
		}
	}
	if want == nil {
		return fmt.Errorf("no verified mr.Run job to compare the hand-composed run with")
	}
	plain, _, err := w.composed(r, want, w.cfg.floor(composedUntraced), false)
	if err != nil {
		return err
	}
	if pw := plain.walls(""); untraced > 0 && len(pw) > 0 {
		frac := (median(pw) - untraced) / untraced
		r.set("trace.composed_wall_frac", frac, len(pw))
		if bound := boundOf("job_wall_s"); (frac > bound || frac < -bound) && !w.cfg.smoke {
			fmt.Fprintf(os.Stderr, "bench: %s: hand-composed run is %+.1f%% off mr.Run's job_wall_s (bound %.0f%%)\n",
				w.name, 100*frac, 100*bound)
		}
	}

	traced, lts, err := w.composed(r, want, w.cfg.floor(tracedJobs), true)
	if err != nil {
		return err
	}
	layerMetric := func(name string, f func(layerTimes) float64) {
		xs := make([]float64, len(lts))
		for i, lt := range lts {
			xs[i] = f(lt)
		}
		r.set(name, median(xs), len(xs))
	}
	layerMetric("exec.map_self_s", func(lt layerTimes) float64 { return lt.mapSelf.Seconds() })
	layerMetric("exec.reduce_self_s", func(lt layerTimes) float64 { return lt.reduceSelf.Seconds() })
	layerMetric("exec.unattributed_frac", func(lt layerTimes) float64 { return lt.unattributedFrac })
	layerMetric("shuffle.send_wait_s", func(lt layerTimes) float64 { return lt.sendWait.Seconds() })
	layerMetric("shuffle.seal_s", func(lt layerTimes) float64 { return lt.seal.Seconds() })
	layerMetric("shuffle.source_wait_s", func(lt layerTimes) float64 { return lt.sourceWait.Seconds() })
	layerMetric("shuffle.run_read_s", func(lt layerTimes) float64 { return lt.runRead.Seconds() })
	if tw := traced.walls(""); untraced > 0 && len(tw) > 0 {
		r.set("trace.overhead_frac", (median(tw)-untraced)/untraced, len(tw))
	}

	if w.replay != nil {
		return w.replay(r, w.cfg, w.spec.input, w.spec.opts)
	}
	return nil
}
