package main

// The two multi-process workloads. Worker subprocesses are this binary
// re-executed by mpexec.SpawnLocal with -worker-coord (see runWorker).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

const (
	clusterWorkers = 2
	spawnTimeout   = 60 * time.Second
)

// runWorker turns this process into a cluster worker when args carry
// -worker-coord. main calls it before anything else, so a worker never
// parses benchmark flags, generates an input or touches a temp directory.
func runWorker(args []string) bool {
	for i, a := range args {
		if a != "-worker-coord" || i+1 >= len(args) {
			continue
		}
		// A worker must not outlive the benchmark: if the parent dies
		// without tearing the cluster down, the worker is re-parented
		// and exits instead of re-dialing a coordinator that is gone.
		parent := os.Getppid()
		go func() {
			for os.Getppid() == parent {
				time.Sleep(200 * time.Millisecond)
			}
			os.Exit(3)
		}()
		if err := mpexec.ServeJobs(args[i+1], resolveApp, exec.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return true
	}
	return false
}

// jobSpans records one multi-process job as a root span with its phases
// under it and the job's Result counters as arguments.
func (c runConfig) jobSpans(workload string, lane int, arm string, res *mr.Result, phases ...span) {
	if c.rec == nil || len(phases) == 0 {
		return
	}
	job, first := c.rec.newJob(c.pid, workload), c.rec.ids(1+len(phases))
	root := span{name: "job:" + arm, start: phases[0].start, end: phases[len(phases)-1].end,
		id: first, job: job, pid: c.pid, lane: lane}
	if res != nil {
		root.args = map[string]any{
			"wall_us": res.Wall.Microseconds(), "map_wall_us": res.MapWall.Microseconds(),
			"shuffle_records": res.ShuffleRecords, "waves": res.Spills,
			"sealed_bytes": res.SpilledBytes, "fetch_bytes": res.FetchBytes,
			"fetch_dials": res.FetchDials, "server_opens": res.ServerOpens,
			"retries": res.MapRetries + res.ReduceRetries,
		}
	}
	spans := []span{root}
	for i, p := range phases {
		p.id, p.parent, p.job, p.pid, p.lane = first+1+i, first, job, c.pid, lane
		spans = append(spans, p)
	}
	c.rec.add(spans...)
}

// clock reads the recorder's clock, or 0 when tracing is off.
func (c runConfig) clock() time.Duration {
	if c.rec == nil {
		return 0
	}
	return c.rec.now()
}

// clusterWC is the paper's experiment on the multi-process engine: one
// large WordCount, classic against barrier-less, A/B on one cluster.
type clusterWC struct {
	cfg  runConfig
	lc   *mpexec.LocalCluster
	arms []jobSpec
}

const (
	armClassic     = "classic"      // barrier, staged: the stage barrier intact
	armPipeStaged  = "pipe_staged"  // pipelined reducers, reduce wave after the map wave
	armPipeOverlap = "pipe_overlap" // pipelined, reduce wave overlapping the map wave (the default path)

	clusterWarmupRounds = 2
	clusterFloor        = 10 // least timed rounds, i.e. jobs per arm
)

func (w *clusterWC) primaryArm() string { return armPipeOverlap }

func (w *clusterWC) teardown() {
	if w.lc != nil {
		w.lc.Teardown()
		w.lc = nil
	}
	w.arms = nil
}

func (w *clusterWC) setup() error {
	job := jobFor(apps.WordCount())
	input := workload.Text(w.cfg.seed, w.cfg.scale(250_000), 20_000, 4)
	base := exec.Options{Mappers: 8, Reducers: 3}
	ref, err := reference(job, input, base)
	if err != nil {
		return err
	}
	sorted := sortedRecords(ref)
	arm := func(name string, mode exec.Mode, staged bool, ref []core.Record) jobSpec {
		opts := base
		opts.Mode, opts.Staged = mode, staged
		return jobSpec{arm: name, job: job, input: input, opts: opts, ref: ref}
	}
	w.arms = []jobSpec{
		arm(armClassic, exec.Barrier, true, ref),
		arm(armPipeStaged, exec.Pipelined, true, sorted),
		arm(armPipeOverlap, exec.Pipelined, false, sorted),
	}
	if w.lc, err = mpexec.SpawnLocal(nil, clusterWorkers, spawnTimeout); err != nil {
		return err
	}
	var warm timedSpan
	for round := range w.cfg.floor(clusterWarmupRounds) {
		w.round(round, &warm)
	}
	for _, s := range warm.samples {
		if !s.ok {
			return fmt.Errorf("warm-up job (%s) failed or differs from the reference", s.arm)
		}
	}
	return nil
}

// round runs each arm once, rotating which goes first so that no arm
// always inherits the same neighbour's leftovers (page cache, GC debt).
func (w *clusterWC) round(round int, ts *timedSpan) {
	for i := range w.arms {
		spec := &w.arms[(i+round)%len(w.arms)]
		run := span{name: "run", start: w.cfg.clock()}
		t0 := time.Now()
		res, err := w.lc.Coord.Run(spec.job, spec.input, spec.opts)
		wall := time.Since(t0)
		run.end = w.cfg.clock()
		verify := span{name: "verify", start: run.end}
		ts.samples = append(ts.samples, finished(spec, wall, res, err))
		verify.end = w.cfg.clock()
		ts.span += wall
		w.cfg.jobSpans("cluster_wc", 0, spec.arm, res, run, verify)
	}
}

func (w *clusterWC) measure() timedSpan {
	var ts timedSpan
	floor, limit := w.cfg.floor(clusterFloor), w.cfg.measureFor()
	for round := 0; round < floor || ts.span < limit; round++ {
		w.round(round, &ts)
	}
	return ts
}

func (w *clusterWC) layers(r *report, ts timedSpan) error {
	classic, staged, overlap := median(ts.walls(armClassic)), median(ts.walls(armPipeStaged)), median(ts.walls(armPipeOverlap))
	n := len(ts.walls(armPipeOverlap))
	r.set("mpexec.classic_wall_s", classic, len(ts.walls(armClassic)))
	r.set("mpexec.pipe_staged_wall_s", staged, len(ts.walls(armPipeStaged)))
	if overlap > 0 {
		r.set("mpexec.barrierless_speedup", classic/overlap, n)
		r.set("mpexec.overlap_speedup", staged/overlap, n)
	}
	overlapMetric := func(name string, f func(*mr.Result) float64) {
		r.set(name, ts.resultMedian(armPipeOverlap, f), n)
	}
	overlapMetric("mpexec.map_wall_s", func(res *mr.Result) float64 { return res.MapWall.Seconds() })
	overlapMetric("mpexec.reduce_tail_s", func(res *mr.Result) float64 { return (res.Wall - res.MapWall).Seconds() })
	overlapMetric("mpexec.fetch_bytes", func(res *mr.Result) float64 { return float64(res.FetchBytes) })
	overlapMetric("mpexec.fetch_dials", func(res *mr.Result) float64 { return float64(res.FetchDials) })
	overlapMetric("mpexec.server_opens", func(res *mr.Result) float64 { return float64(res.ServerOpens) })
	r.set("mpexec.retries", float64(retries(ts)), 0)
	return nil
}

func retries(ts timedSpan) int {
	n := 0
	for _, s := range ts.samples {
		if s.res != nil {
			n += s.res.MapRetries + s.res.ReduceRetries
		}
	}
	return n
}

// serviceStream is the same engine used the other way round: a closed loop
// of many small jobs through the journaled mpexec.Service, where admission,
// dispatch, per-job set-up and teardown, and journal appends dominate.
type serviceStream struct {
	cfg      runConfig
	lc       *mpexec.LocalCluster
	svc      *mpexec.Service
	stateDir string
	kinds    [][]jobSpec // kind -> one spec per distinct input

	mu          sync.Mutex
	rng         *workload.RNG
	order       []*jobSpec // the seeded job sequence, drawn on demand
	refused     int
	journalPeak int64
	emptyJobMS  []float64
}

const (
	kindWCBarrier   = "wc_barrier"
	kindSortBarrier = "sort_barrier"
	kindWCPipelined = "wc_pipelined"

	streamSubmitters = 2 // closed loop: each submits, waits, then submits its next job
	streamInputs     = 6 // distinct inputs per kind
	streamWarmups    = 20
	streamFloor      = 200 // least timed jobs
	emptyJobs        = 30
)

// streamBlock is the traffic mix as one block of the job sequence, by index
// into serviceStream.kinds: 40 % WordCount Barrier, 30 % Sort Barrier, 30 %
// WordCount Pipelined. The sequence is block after block, each shuffled by
// the seeded RNG, so every seed realises the mix exactly and the all-kinds
// median does not wander with the luck of the draw.
var streamBlock = []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}

func (w *serviceStream) primaryArm() string { return "" }

func (w *serviceStream) teardown() {
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	if w.lc != nil {
		w.lc.Teardown()
		w.lc = nil
	}
	w.kinds, w.order = nil, nil
}

func (w *serviceStream) setup() error {
	// A fresh journal every time: clearing the state directory is part of
	// set-up, so it shows in setup_s.
	w.stateDir = filepath.Join(w.cfg.tmp, "state")
	if err := os.RemoveAll(w.stateDir); err != nil {
		return err
	}
	wc, sorter := jobFor(apps.WordCount()), jobFor(apps.Sort())
	wcOpts := exec.Options{Mappers: 4, Reducers: 3}
	sortOpts := exec.Options{Mappers: 3, Reducers: 2, SpillBytes: 64 << 10, Compression: codec.DeltaBlock}
	w.kinds = make([][]jobSpec, 3)
	for i := range streamInputs {
		seed := w.cfg.seed*1000 + uint64(i)
		text := workload.Text(seed, w.cfg.scale(20_000), 2_000, 6)
		ref, err := reference(wc, text, wcOpts)
		if err != nil {
			return err
		}
		pipelined := wcOpts
		pipelined.Mode = exec.Pipelined
		keys := workload.UniformKeys(seed, w.cfg.scale(20_000), 1<<40)
		sortRef, err := reference(sorter, keys, sortOpts)
		if err != nil {
			return err
		}
		w.kinds[0] = append(w.kinds[0], jobSpec{arm: kindWCBarrier, job: wc, input: text, opts: wcOpts, ref: ref})
		w.kinds[1] = append(w.kinds[1], jobSpec{arm: kindSortBarrier, job: sorter, input: keys, opts: sortOpts, ref: sortRef})
		w.kinds[2] = append(w.kinds[2], jobSpec{arm: kindWCPipelined, job: wc, input: text, opts: pipelined, ref: sortedRecords(ref)})
	}
	w.rng, w.order = workload.NewRNG(w.cfg.seed^0x5eed), nil

	var err error
	if w.lc, err = mpexec.SpawnLocal(nil, clusterWorkers, spawnTimeout); err != nil {
		return err
	}
	w.svc, err = mpexec.NewService(w.lc.Coord, clusterWorkers, mpexec.ServiceConfig{
		StateDir: w.stateDir, MaxConcurrent: 2, Resolver: resolveApp,
	})
	if err != nil {
		return err
	}
	warm := w.stream(w.cfg.floor(streamWarmups), 0)
	for _, s := range warm.samples {
		if !s.ok {
			return fmt.Errorf("warm-up job (%s) failed or differs from the reference", s.arm)
		}
	}
	return nil
}

// specAt returns the i-th job of the seeded sequence: a shuffled
// streamBlock at a time, each job on one of its kind's inputs. Callers hold
// w.mu.
func (w *serviceStream) specAt(i int) *jobSpec {
	for len(w.order) <= i {
		block := slices.Clone(streamBlock)
		for j := len(block) - 1; j > 0; j-- {
			k := w.rng.Intn(j + 1)
			block[j], block[k] = block[k], block[j]
		}
		for _, kind := range block {
			w.order = append(w.order, &w.kinds[kind][w.rng.Intn(streamInputs)])
		}
	}
	return w.order[i]
}

// stream runs the closed loop: each submitter takes the next job of the
// sequence, submits it, waits for the result, verifies it with the clock
// stopped, and goes again — until floor jobs are taken and the time is up.
func (w *serviceStream) stream(floor int, limit time.Duration) timedSpan {
	var ts timedSpan
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for lane := range streamSubmitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w.mu.Lock()
				if next >= floor && time.Since(start) >= limit {
					w.mu.Unlock()
					return
				}
				spec := w.specAt(next)
				next++
				w.mu.Unlock()

				submit := span{name: "submit", start: w.cfg.clock()}
				t0 := time.Now()
				ticket, err := w.svc.Submit(spec.job, spec.input, spec.opts)
				submit.end = w.cfg.clock()
				wait := span{name: "wait", start: submit.end}
				var res *mr.Result
				if err == nil {
					res, err = ticket.Wait()
				}
				wall := time.Since(t0)
				wait.end = w.cfg.clock()
				verify := span{name: "verify", start: wait.end}
				s := finished(spec, wall, res, err)
				verify.end = w.cfg.clock()
				var journal int64
				if w.cfg.rec != nil {
					if fi, err := os.Stat(filepath.Join(w.stateDir, "journal.wal")); err == nil {
						journal = fi.Size()
					}
				}

				w.mu.Lock()
				ts.samples = append(ts.samples, s)
				if errors.Is(err, mpexec.ErrQueueFull) {
					w.refused++
				}
				w.journalPeak = max(w.journalPeak, journal)
				w.mu.Unlock()
				w.cfg.jobSpans("service_stream", lane, spec.arm, res, submit, wait, verify)
			}
		}()
	}
	wg.Wait()
	ts.span = time.Since(start)
	return ts
}

func (w *serviceStream) measure() timedSpan {
	if w.cfg.rec != nil {
		// The control-plane floor: one-record jobs, one at a time, before
		// the stream loads the service.
		one := workload.UniformKeys(w.cfg.seed, 1, 1<<40)
		for range w.cfg.floor(emptyJobs) {
			t0 := time.Now()
			ticket, err := w.svc.Submit(jobFor(apps.Sort()), one, exec.Options{Mappers: 1, Reducers: 1})
			if err == nil {
				_, err = ticket.Wait()
			}
			if err == nil {
				w.emptyJobMS = append(w.emptyJobMS, time.Since(t0).Seconds()*1e3)
			}
		}
	}
	return w.stream(w.cfg.floor(streamFloor), w.cfg.measureFor())
}

func (w *serviceStream) layers(r *report, ts timedSpan) error {
	all := ts.walls("")
	ms := make([]float64, len(all))
	for i, s := range all {
		ms[i] = s * 1e3
	}
	r.set("mpexec.submit_p95_ms", percentile(ms, 95), len(ms))
	r.set("mpexec.empty_job_ms", median(w.emptyJobMS), len(w.emptyJobMS))
	var admit []float64
	for _, s := range ts.samples {
		if s.ok {
			admit = append(admit, (s.wall-s.res.Wall).Seconds()*1e3)
		}
	}
	r.set("mpexec.admit_overhead_ms", median(admit), len(admit))
	r.set("mpexec.stream_makespan_s", ts.span.Seconds(), len(ts.samples))
	r.set("mpexec.refused", float64(w.refused), 0)
	r.set("mpexec.retries", float64(retries(ts)), 0)
	if pipelined := median(ts.walls(kindWCPipelined)); pipelined > 0 {
		r.set("mpexec.barrierless_speedup", median(ts.walls(kindWCBarrier))/pipelined, len(ts.walls(kindWCPipelined)))
	}
	r.set("wal.journal_peak_bytes", float64(w.journalPeak), len(ts.samples))
	return replayWAL(r, w.cfg)
}
