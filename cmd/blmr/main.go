// Command blmr runs a single MapReduce application on any of the three
// engines:
//
//   - the simulated cluster (default): virtual time/memory, the paper's
//     testbed shape;
//   - the real-concurrency in-process engine (-transport inproc|tcp):
//     wall-clock execution with the chosen shuffle transport;
//   - the multi-process cluster engine (-workers N -transport tcp): N
//     worker subprocesses register with a coordinator, exchange sealed
//     spill runs through per-worker loopback TCP run-servers, and return
//     reduce outputs over the control connection.
//
// Usage:
//
//	blmr -app wordcount -size 8 -mode pipelined -store spill -reducers 40
//	blmr -app blackscholes -mappers 100 -mode barrier
//	blmr -app wordcount -size 4 -timeline
//	blmr -app wordcount -transport tcp -verify          # real engine, loopback TCP shuffle
//	blmr -app sort -workers 3 -transport tcp -verify    # 3 worker subprocesses
//	blmr -app wordcount -workers 8                      # simulator, 8-worker sub-cluster
//
// -verify re-runs the job on the single-process in-memory path and checks
// the outputs match (byte-identical in barrier mode).
//
// The multi-process engine also runs as a durable multi-job service:
//
//	blmr -serve -workers 3 -state-dir DIR    # journal every admitted job
//	blmr -submit -addr HOST:PORT ...         # stream submissions to it
//	blmr -serve -workers 3 -state-dir DIR -resume
//	blmr -state-dir DIR -journal-stat        # read-only journal summary
//
// -resume rebinds the coordinator address journaled in DIR/coord.addr
// (the dead service's workers survive and re-dial it), waits for them to
// re-register, replays the job journal, runs every unfinished job —
// re-attaching journaled map outputs whose sealed runs the returning
// workers still hold — verifies each against the in-process reference,
// and exits non-zero on any mismatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/harness"
	"blmr/internal/metrics"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/simmr"
	"blmr/internal/store"
)

// options is every flag, parsed once. Each form of the command builds the
// one mr.Options, mpexec.ServiceConfig, harness.RunSpec or submitRequest it
// runs from these fields and nothing else, so a worker re-executed with its
// coordinator's flags cannot disagree with it.
type options struct {
	// The workload, and how the job is shaped on every engine.
	app               string
	size              float64
	mappers, reducers int
	mode              mr.Mode
	store             store.Kind
	spillBytes        int64
	comp              codec.Compression
	combine           bool
	speculative       bool
	workers           int

	// Simulator only.
	heapMB, spillMB int
	snapshot        float64
	timeline        bool

	// Real engine only; real records that -transport was given.
	real                           bool
	transport                      shuffle.Kind
	mapTasks, fanIn, decodeWorkers int
	staged, verify                 bool
	chaosKill                      time.Duration
	workerCoord                    string

	// Job service.
	serve, submit, resume, journalStat bool
	addr, policy, stateDir             string
	maxConcurrent, maxQueued           int
}

// enumFlag registers a flag whose value parse turns into a T; the flag
// package reports parse's error as a usage error.
func enumFlag[T any](fs *flag.FlagSet, name, usage string, dst *T, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) (err error) {
		*dst, err = parse(s)
		return err
	})
}

// parseFlags parses the command line into options.
func parseFlags(args []string) (*options, error) {
	o := &options{mode: mr.Pipelined}
	return o, o.flagSet().Parse(args)
}

// flagSet binds every flag to its field. Enumerated flags (-mode, -store,
// -transport, -compress) parse to their typed values, so a bad name is a
// usage error before anything runs.
func (o *options) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("blmr", flag.ContinueOnError)
	fs.StringVar(&o.app, "app", "wordcount", "application: grep|sort|wordcount|knn|lastfm|ga|blackscholes")
	fs.Float64Var(&o.size, "size", 4, "input size in (virtual) GB for size-driven apps")
	fs.IntVar(&o.mappers, "mappers", 100, "mapper count for ga/blackscholes")
	enumFlag(fs, "mode", "barrier|pipelined (default pipelined)", &o.mode, parseMode)
	enumFlag(fs, "store", "partial-result store: memory|spill|kv (default memory)", &o.store, parseStore)
	fs.IntVar(&o.reducers, "reducers", 60, "number of reduce tasks")
	fs.IntVar(&o.heapMB, "heap", 0, "simulator: per-reducer heap cap in MB (0 = unlimited)")
	fs.IntVar(&o.spillMB, "spill", 240, "simulator: spill threshold in MB for -store spill (the real engine's one memory budget is -spill-bytes)")
	fs.Int64Var(&o.spillBytes, "spill-bytes", 0, "per-task intermediate buffer budget in bytes: map outputs spill to sorted runs and reducers merge externally (0 = all in RAM)")
	fs.BoolVar(&o.timeline, "timeline", false, "print the task-count timeline")
	fs.BoolVar(&o.speculative, "speculative", false, "enable speculative map execution once 75% of the map wave is done (simulator and multi-process cluster)")
	fs.DurationVar(&o.chaosKill, "chaos-kill", 0, "cluster mode: SIGKILL one worker this long after the job starts (fault-injection; 0 = off)")
	fs.BoolVar(&o.combine, "combine", false, "enable the map-side combiner (aggregation-class apps only; uses the app's merger)")
	fs.Float64Var(&o.snapshot, "snapshot", 0, "pipelined progress snapshot period in virtual seconds (0 = off)")
	enumFlag(fs, "transport", "run on the REAL engine with this shuffle transport: inproc|tcp (unset = simulator)", &o.transport,
		func(s string) (shuffle.Kind, error) {
			o.real = true
			return shuffle.ParseKind(s)
		})
	fs.BoolVar(&o.staged, "staged", false, "multi-process engine: disable cross-wave overlap, dispatching the reduce wave only after the whole map wave (default overlapped). The simulator form ignores it: it models the in-process shuffle, which has no stage barrier to restore (harness.OverlapSweep simulates the comparison)")
	fs.IntVar(&o.workers, "workers", 0, "with -transport tcp: run N worker subprocesses (multi-process cluster mode); with the simulator: place tasks on an N-node sub-cluster (0 = all nodes)")
	fs.IntVar(&o.mapTasks, "map-tasks", 0, "real engine: number of map tasks (0 = NumCPU)")
	fs.IntVar(&o.fanIn, "merge-fan-in", 0, "real engine: external merge fan-in cap (0 = default 64)")
	fs.IntVar(&o.decodeWorkers, "decode-workers", 0, "real engine, tcp transport: parallel block-decode workers per fetch pool; fetched compressed sections CRC-check and decompress concurrently with the merge (1 = inline, 0 = default min(GOMAXPROCS, 8))")
	enumFlag(fs, "compress", "sealed-run codec: none|block|delta (default none) — compresses spill runs, run-exchange segments and TCP fetch bytes (delta front-codes sorted keys)", &o.comp, codec.ParseCompression)
	fs.BoolVar(&o.verify, "verify", false, "real engine: check output against the single-process in-memory path (byte-identical in barrier mode)")
	fs.BoolVar(&o.serve, "serve", false, "run the multi-tenant job service: spawn -workers worker subprocesses and accept -submit jobs on -addr until SIGTERM (drains admitted jobs); its own -mode/-reducers/-spill-bytes/-compress are what a submission's zero fields inherit")
	fs.BoolVar(&o.submit, "submit", false, "submit one job (-app/-size/-mode/-reducers/-spill-bytes/-compress/-verify/-chaos-kill) to a running -serve service at -addr")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7420", "job service submission address for -serve/-submit")
	fs.StringVar(&o.policy, "policy", "", "job service placement policy: round-robin|least-loaded|locality (empty = work-stealing dispatch)")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 2, "job service: max simultaneously running jobs")
	fs.IntVar(&o.maxQueued, "max-queued", 16, "job service: admission queue bound (a full queue refuses submissions)")
	fs.StringVar(&o.workerCoord, "worker-coord", "", "internal: run as a cluster worker, dialing this coordinator address")
	fs.StringVar(&o.stateDir, "state-dir", "", "job service durable state directory: admissions and task completions are journaled so a crashed coordinator can be restarted with -resume by the same binary (empty = in-memory only)")
	fs.BoolVar(&o.resume, "resume", false, "with -serve -state-dir: instead of a fresh pool, rebind the journaled coordinator address, wait for the surviving workers to re-register, replay the journal, run the resumed jobs to completion (re-attaching journaled map output from surviving sealed runs), verify each against the in-process reference, and exit")
	fs.BoolVar(&o.journalStat, "journal-stat", false, "print per-kind record counts from the -state-dir job journal and exit (read-only; safe while a service is appending)")
	return fs
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		os.Exit(2) // the flag package has already printed the error and usage
	}
	switch {
	case o.journalStat:
		runJournalStat(o.stateDir)
	case o.workerCoord != "":
		runWorker(o)
	case o.serve && o.resume:
		runResume(o)
	case o.serve:
		runServe(o)
	case o.submit:
		runSubmit(o.addr, o.submitRequest())
	case o.real:
		runReal(o)
	default:
		runSim(o)
	}
}

// fatal prints to stderr and exits with code (2 = usage, 1 = run failure).
func fatal(code int, a ...any) {
	fmt.Fprintln(os.Stderr, a...)
	os.Exit(code)
}

// loadApp builds the -app workload at -size, with its combiner when
// -combine allows one: the job every engine runs as is. BlackScholes reduces
// into one partition by construction, whatever -reducers says.
func (o *options) loadApp() (apps.App, harness.Dataset, simmr.CostModel, error) {
	app, ds, costs, ok := buildApp(o.app, o.size, o.mappers)
	if !ok {
		return app, ds, costs, fmt.Errorf("unknown app %q", o.app)
	}
	if app.Name == "blackscholes" {
		o.reducers = 1
	}
	return app.WithCombiner(o.combine), ds, costs, nil
}

// mrOptions is the one mr.Options of a real-engine run: the batch job's, a
// -worker-coord worker's base, and (on a copy overlaid with the request) a
// submitted job's.
func (o *options) mrOptions() mr.Options {
	return mr.Options{
		Mappers: o.mapTasks, Reducers: o.reducers, Mode: o.mode,
		Transport: o.transport, Store: o.store, SpillBytes: o.spillBytes,
		MergeFanIn: o.fanIn, DecodeWorkers: o.decodeWorkers, Compression: o.comp,
		Staged: o.staged, Speculative: o.speculative,
	}
}

// runSpec is the one harness.RunSpec of a simulator run.
func (o *options) runSpec(app apps.App, ds harness.Dataset, costs simmr.CostModel) harness.RunSpec {
	return harness.RunSpec{Data: ds, JobSpec: simmr.JobSpec{
		Job: app, Mode: o.mode, Reducers: o.reducers, Store: o.store, Costs: costs,
		HeapBudget: int64(o.heapMB) << 20, SpillThreshold: int64(o.spillMB) << 20,
		SpillBytes: o.spillBytes, Workers: o.workers, Compression: o.comp,
		Speculative: o.speculative, SnapshotPeriod: o.snapshot,
	}}
}

// runWorker is the -worker-coord form: SpawnLocal re-executed this binary
// with the coordinator's own flags, so the options below are the
// coordinator's.
func runWorker(o *options) {
	var err error
	if o.serve {
		// A service-pool worker carries many jobs with differing apps and
		// options: resolve each from the registry by the name the job-
		// start frame ships, with these flags as the base options.
		err = mpexec.ServeJobs(o.workerCoord, registryResolver(o.combine), o.mrOptions())
	} else {
		var app apps.App
		if app, _, _, err = o.loadApp(); err != nil {
			fatal(2, err)
		}
		err = mpexec.Serve(o.workerCoord, app, o.mrOptions())
	}
	if err != nil {
		fatal(1, "worker:", err)
	}
}

func buildApp(name string, sizeGB float64, mappers int) (apps.App, harness.Dataset, simmr.CostModel, bool) {
	switch name {
	case "grep":
		return apps.Grep("word00042"), harness.WordCountData(sizeGB), harness.CalibWordCount, true
	case "sort":
		return apps.Sort(), harness.SortData(sizeGB), harness.CalibSort, true
	case "wordcount":
		return apps.WordCount(), harness.WordCountData(sizeGB), harness.CalibWordCount, true
	case "knn":
		ds, exp := harness.KNNData(sizeGB)
		return apps.KNN(10, exp), ds, harness.CalibKNN, true
	case "lastfm":
		return apps.LastFM(), harness.LastFMData(sizeGB), harness.CalibLastFM, true
	case "ga":
		return apps.GA(200), harness.GAData(mappers), harness.CalibGA, true
	case "blackscholes":
		return apps.BlackScholes(harness.BSPaperParams()), harness.BSData(mappers), harness.CalibBS, true
	}
	return apps.App{}, harness.Dataset{}, simmr.CostModel{}, false
}

func parseMode(s string) (mr.Mode, error) {
	switch s {
	case "barrier":
		return mr.Barrier, nil
	case "pipelined":
		return mr.Pipelined, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want barrier|pipelined)", s)
}

func parseStore(s string) (store.Kind, error) {
	switch s {
	case "memory":
		return store.InMemory, nil
	case "spill":
		return store.SpillMerge, nil
	case "kv":
		return store.KV, nil
	}
	return 0, fmt.Errorf("unknown store %q (want memory|spill|kv)", s)
}

// runReal executes the job on the real-concurrency engine — in-process over
// the chosen transport, or across worker subprocesses when -workers > 0.
func runReal(o *options) {
	job, ds, _, err := o.loadApp()
	if err != nil {
		fatal(2, err)
	}
	input := slices.Concat(ds.Splits...)
	opts := o.mrOptions()

	var res *mr.Result
	if o.workers > 0 {
		if o.transport != shuffle.TCP {
			fatal(2, "multi-process mode needs -transport tcp (sealed runs are the only cross-process exchange)")
		}
		res, err = runCluster(o, job, input)
	} else {
		res, err = mr.Run(job, input, opts)
	}
	if err != nil {
		fatal(1, "job failed:", err)
	}

	engine := "real/" + o.transport.String()
	if o.workers > 0 {
		engine = fmt.Sprintf("cluster/%d-workers", o.workers)
		if o.staged {
			engine += "/staged"
		}
	}
	fmt.Printf("app=%s engine=%s mode=%s store=%s reducers=%d\n", job.Name, engine, o.mode, o.store, o.reducers)
	fmt.Printf("records: in=%d out=%d shuffled=%d\n", len(input), len(res.Output), res.ShuffleRecords)
	fmt.Printf("wall: %.1fms (map %.1fms)  spills: %d (%d KB sealed)  merge passes: %d  peak partials: %d KB\n",
		res.Wall.Seconds()*1e3, res.MapWall.Seconds()*1e3,
		res.Spills, res.SpilledBytes>>10, res.MergePasses, res.PeakPartialBytes>>10)
	if res.FetchDials > 0 {
		fmt.Printf("fetch plane: %d KB over %d pooled run-server conns, %d server file opens\n",
			res.FetchBytes>>10, res.FetchDials, res.ServerOpens)
	}
	if res.MapRetries+res.ReduceRetries+res.BackupsLaunched > 0 {
		fmt.Printf("recovery: %d map re-executions, %d reduce re-executions, %d speculative clones (%d won)\n",
			res.MapRetries, res.ReduceRetries, res.BackupsLaunched, res.BackupsWon)
	}
	if o.comp != codec.None && res.CompressedSpillBytes > 0 {
		fmt.Printf("compression (%s): %d KB raw -> %d KB sealed (%.2fx)  fetched: %d KB\n",
			o.comp, res.RawSpillBytes>>10, res.CompressedSpillBytes>>10,
			float64(res.RawSpillBytes)/float64(res.CompressedSpillBytes), res.FetchBytes>>10)
	}

	if o.verify {
		how, err := verifyOutput(job, input, opts, res.Output)
		if err != nil {
			fatal(1, err)
		}
		fmt.Printf("verify: OK — output matches the single-process in-memory path (%s)\n", how)
	}
}

// verifyOutput re-runs job on the single-process in-memory path under the
// same split, partitioning, mode and store as opts and checks out against
// it: byte-identical in barrier mode, as key-sorted multisets in pipelined
// mode, by record count for cross-key apps (whose pipelined output depends
// on arrival order). It returns how the outputs were matched.
func verifyOutput(job mr.Job, input []core.Record, opts mr.Options, out []core.Record) (string, error) {
	crossKey := job.Class == core.ClassCrossKey
	ref, err := mr.Run(job, input, mr.Options{
		Mappers: opts.Mappers, Reducers: opts.Reducers, Mode: opts.Mode, Store: opts.Store,
	})
	if err != nil {
		return "", fmt.Errorf("verify run failed: %w", err)
	}
	exact := opts.Mode == mr.Barrier
	if err := compareOutputs(ref.Output, out, exact, crossKey); err != nil {
		return "", fmt.Errorf("VERIFY FAILED: %w", err)
	}
	switch {
	case exact:
		return "byte-identical", nil
	case crossKey:
		return "record counts match; cross-key output is arrival-order-dependent", nil
	}
	return "sorted multisets match", nil
}

// runCluster spawns worker subprocesses (this binary re-executed with the
// same flags plus -worker-coord; workers rebuild the same app/job from
// those flags) and coordinates the job across them. chaosKill > 0 SIGKILLs
// the first worker that long after the job starts — the fault-injection
// path CI's chaos smoke drives to prove a worker death is survivable.
func runCluster(o *options, job mr.Job, input []core.Record) (*mr.Result, error) {
	cluster, err := mpexec.SpawnLocal(os.Args[1:], o.workers, 60*time.Second)
	if err != nil {
		return nil, err
	}
	defer cluster.Teardown()
	if o.chaosKill > 0 {
		if o.workers < 2 {
			return nil, fmt.Errorf("-chaos-kill needs at least 2 workers to leave a survivor")
		}
		timer := time.AfterFunc(o.chaosKill, func() {
			if err := cluster.Kill(0); err == nil {
				fmt.Fprintf(os.Stderr, "chaos: killed worker 0 after %s\n", o.chaosKill)
			}
		})
		defer timer.Stop()
	}
	return cluster.Coord.Run(job, input, o.mrOptions())
}

// compareOutputs checks b against the reference a: byte-identical when
// exact (barrier mode), as key-sorted multisets otherwise. countOnly
// (cross-key apps like GA, whose pipelined output depends on arrival
// order) compares record counts.
func compareOutputs(a, b []core.Record, exact, countOnly bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records vs reference's %d", len(b), len(a))
	}
	if countOnly && !exact {
		return nil
	}
	if !exact {
		a = append([]core.Record(nil), a...)
		b = append([]core.Record(nil), b...)
		mr.SortOutput(a)
		mr.SortOutput(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("record %d: %v vs reference's %v", i, b[i], a[i])
		}
	}
	return nil
}

func runSim(o *options) {
	app, ds, costs, err := o.loadApp()
	if err != nil {
		fatal(2, err)
	}
	res := harness.Run(o.runSpec(app, ds, costs))

	fmt.Printf("app=%s mode=%s store=%s reducers=%d", app.Name, o.mode, o.store, o.reducers)
	if o.workers > 0 {
		fmt.Printf(" workers=%d", o.workers)
	}
	fmt.Println()
	fmt.Printf("completion: %.1fs  (map outputs ready: %.1fs)\n", res.Completion, res.MapOutputsReady)
	if res.Failed {
		fmt.Printf("JOB FAILED: %s\n", res.FailReason)
	}
	fmt.Printf("map tasks: %d (retries %d, backups %d/%d won)  output records: %d  spills: %d  peak partials: %d MB  shuffle: %d MB\n",
		res.MapTasks, res.MapRetries, res.BackupsWon, res.BackupsLaunched, len(res.Output), res.Spills, res.PeakMemVirt>>20, res.ShuffleBytes>>20)
	if o.spillBytes > 0 {
		fmt.Printf("external shuffle: budget %d KB, %d map-side spill runs\n", o.spillBytes>>10, res.SpillRuns)
	}
	if len(res.Snapshots) > 0 {
		fmt.Printf("progress snapshots: %d (first %.1fs, last %.1fs)\n",
			len(res.Snapshots), res.Snapshots[0].T, res.Snapshots[len(res.Snapshots)-1].T)
	}
	for _, st := range []metrics.Stage{metrics.StageMap, metrics.StageShuffle, metrics.StageSort, metrics.StageReduce, metrics.StageOutput} {
		if first, last, ok := res.Metrics.StageBounds(st); ok {
			fmt.Printf("  %-8s %8.1fs .. %8.1fs\n", st, first, last)
		}
	}
	if o.timeline {
		step := res.Completion / 40
		fmt.Println(metrics.RenderTimeline(res.Metrics,
			[]metrics.Stage{metrics.StageMap, metrics.StageShuffle, metrics.StageSort, metrics.StageReduce, metrics.StageOutput}, step))
	}
}
