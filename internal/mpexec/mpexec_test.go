package mpexec_test

// Multi-process execution tests. Worker processes are this test binary
// re-executed with MPEXEC_WORKER set (the standard helper-process pattern),
// so the suite exercises real subprocesses, real TCP control and run-fetch
// traffic, and real worker death — not in-process simulations.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"blmr/internal/apps"
	"blmr/internal/codec"
	"blmr/internal/core"
	blexec "blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/workload"
)

// testJob builds the worker-side job from the environment, mirroring how
// cmd/blmr workers rebuild the job from flags.
func testJob() blexec.Job {
	app := apps.WordCount()
	if os.Getenv("MPEXEC_APP") == "sort" {
		app = apps.Sort()
	}
	return slowed(app)
}

// slowed applies the env-driven slowdowns the fault and restart tests use
// to hold a job in the phase they kill at: MPEXEC_SLOW stretches every map
// call, MPEXEC_SLOWRED every reduce group.
func slowed(job blexec.Job) blexec.Job {
	if os.Getenv("MPEXEC_SLOW") != "" {
		inner := job.Mapper
		job.Mapper = core.MapperFunc(func(k, v string, emit core.Emitter) {
			time.Sleep(2 * time.Millisecond)
			inner.Map(k, v, emit)
		})
	}
	if os.Getenv("MPEXEC_SLOWRED") != "" && job.NewGroup != nil {
		inner := job.NewGroup
		job.NewGroup = func() core.GroupReducer {
			g := inner()
			return core.GroupReducerFunc(func(key string, values []string, out core.Output) {
				time.Sleep(10 * time.Millisecond)
				g.Reduce(key, values, out)
			})
		}
	}
	return job
}

func testOpts() blexec.Options {
	opts := blexec.Options{Mappers: 4, Reducers: 3}
	if os.Getenv("MPEXEC_MODE") == "pipelined" {
		opts.Mode = blexec.Pipelined
	}
	if os.Getenv("MPEXEC_SPILL") != "" {
		opts.SpillBytes = 8 << 10
	}
	if c := os.Getenv("MPEXEC_COMPRESS"); c != "" {
		comp, err := codec.ParseCompression(c)
		if err != nil {
			panic(err)
		}
		opts.Compression = comp
	}
	if f := os.Getenv("MPEXEC_FANIN"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil {
			panic(err)
		}
		opts.MergeFanIn = n
	}
	return opts
}

// combinedWordCount is WordCount with its map-side combiner, registered
// under a name of its own so a worker resolves the combining variant.
func combinedWordCount() apps.App {
	app := apps.WordCount().WithCombiner(true)
	app.Name += "+combine"
	return app
}

// testResolver is the multi-tenant worker's job registry: every app the
// service tests submit, resolved by name, with the same env-driven
// slowdowns testJob applies.
func testResolver() mpexec.JobResolver {
	reg := map[string]blexec.Job{}
	for _, app := range []apps.App{apps.WordCount(), apps.Sort(), apps.Grep("the"), combinedWordCount()} {
		reg[app.Name] = slowed(app)
	}
	return func(name string) (blexec.Job, bool) {
		j, ok := reg[name]
		return j, ok
	}
}

func TestMain(m *testing.M) {
	if bind := os.Getenv("MPEXEC_COORD_BIND"); bind != "" {
		// Durable-coordinator subprocess for the crash-restart tests: the
		// test process owns the workers and SIGKILLs this process mid-job.
		if err := runCoordProcess(bind); err != nil {
			fmt.Fprintln(os.Stderr, "coordinator:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	for i, arg := range os.Args {
		if arg == "-worker-coord" && i+1 < len(os.Args) {
			// A LocalCluster worker: SpawnLocal re-executes this binary
			// with -worker-coord. It serves the whole registry.
			if err := mpexec.ServeJobs(os.Args[i+1], testResolver(), blexec.Options{}); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	if addr := os.Getenv("MPEXEC_WORKER"); addr != "" {
		if hb := os.Getenv("MPEXEC_HEARTBEAT"); hb != "" {
			d, err := time.ParseDuration(hb)
			if err != nil {
				panic(err)
			}
			mpexec.SetHeartbeatInterval(d)
		}
		var err error
		if os.Getenv("MPEXEC_REGISTRY") != "" {
			err = mpexec.ServeJobs(addr, testResolver(), testOpts())
		} else {
			err = mpexec.Serve(addr, testJob(), testOpts())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorkers re-executes the test binary as n worker processes.
func spawnWorkers(t testing.TB, addr string, n int, extraEnv ...string) []*exec.Cmd {
	t.Helper()
	var cmds []*exec.Cmd
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MPEXEC_WORKER="+addr)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn worker %d: %v", i, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
			_, _ = c.Process.Wait()
		}
	})
	return cmds
}

func runCluster(t testing.TB, job blexec.Job, input []core.Record, opts blexec.Options, workers int, env ...string) (*mr.Result, error) {
	t.Helper()
	c, err := mpexec.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spawnWorkers(t, c.Addr(), workers, env...)
	if err := c.WaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return c.Run(job, input, opts)
}

// TestClusterEquivalence: a 2-worker TCP-exchange job matches the
// single-process in-memory engine — byte-identically in barrier mode.
func TestClusterEquivalence(t *testing.T) {
	input := workload.Text(21, 2000, 400, 8)
	for _, tc := range []struct {
		mode  blexec.Mode
		env   []string
		exact bool
	}{
		{mode: blexec.Barrier, env: nil, exact: true},
		{mode: blexec.Pipelined, env: []string{"MPEXEC_MODE=pipelined"}, exact: false},
	} {
		ref, err := mr.Run(apps.WordCount(), input,
			blexec.Options{Mappers: 4, Reducers: 3, Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: tc.mode}
		res, err := runCluster(t, apps.WordCount(), input, opts, 2, tc.env...)
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		if tc.exact {
			if len(res.Output) != len(ref.Output) {
				t.Fatalf("%d records vs %d", len(res.Output), len(ref.Output))
			}
			for i := range res.Output {
				if res.Output[i] != ref.Output[i] {
					t.Fatalf("record %d: %v vs %v", i, res.Output[i], ref.Output[i])
				}
			}
		} else {
			requireSameSorted(t, ref.Output, res.Output)
		}
		if res.ShuffleRecords != ref.ShuffleRecords {
			t.Fatalf("shuffled %d records, want %d", res.ShuffleRecords, ref.ShuffleRecords)
		}
		if res.SpilledBytes == 0 {
			t.Fatal("workers sealed no runs — the exchange did not go through disk")
		}
	}
}

// TestClusterSpill: the external-shuffle budget composes with the
// multi-process exchange (multiple waves per map task, fetched and merged
// remotely in fan-in-2 passes, byte-identical output), and the cluster
// reports exactly the spill accounting of the same job run in one process
// over the TCP exchange: tasks of one job overlap on a worker (its reduce
// tasks start with the map wave), and each worker's seals count once.
func TestClusterSpill(t *testing.T) {
	input := workload.Text(22, 1500, 300, 8)
	ref, err := mr.Run(apps.WordCount(), input,
		blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier})
	if err != nil {
		t.Fatal(err)
	}
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier, SpillBytes: 8 << 10, MergeFanIn: 2}
	res, err := runCluster(t, apps.WordCount(), input, opts, 2, "MPEXEC_SPILL=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("record %d: %v vs %v", i, res.Output[i], ref.Output[i])
		}
	}
	if res.Spills == 0 {
		t.Fatal("expected sealed spill waves at an 8KiB budget")
	}
	opts.Transport = shuffle.TCP
	one, err := mr.Run(apps.WordCount(), input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills != one.Spills || res.MergePasses != one.MergePasses || one.MergePasses == 0 {
		t.Fatalf("cluster sealed %d waves in %d merge passes, one process %d in %d (want equal, passes > 0)",
			res.Spills, res.MergePasses, one.Spills, one.MergePasses)
	}
	if res.SpilledBytes != one.SpilledBytes || res.RawSpillBytes != one.RawSpillBytes {
		t.Fatalf("cluster reports %d spilled bytes (%d raw), one process %d (%d raw)",
			res.SpilledBytes, res.RawSpillBytes, one.SpilledBytes, one.RawSpillBytes)
	}
}

// TestClusterCompressed: sealed-run compression composes with the
// multi-process exchange — waves seal compressed on the mapping worker,
// travel compressed between run-servers, and decompress at the consuming
// merger, byte-identical to the uncompressed single-process engine. The
// coordinator's assembled Result must carry the ratio and wire-byte
// accounting shipped back over the control protocol.
func TestClusterCompressed(t *testing.T) {
	input := workload.Text(24, 1500, 300, 8)
	ref, err := mr.Run(apps.WordCount(), input,
		blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier})
	if err != nil {
		t.Fatal(err)
	}
	opts := blexec.Options{
		Mappers: 4, Reducers: 3, Mode: blexec.Barrier,
		SpillBytes: 8 << 10, Compression: codec.DeltaBlock,
	}
	res, err := runCluster(t, apps.WordCount(), input, opts, 2,
		"MPEXEC_SPILL=1", "MPEXEC_COMPRESS=delta")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("%d records vs %d", len(res.Output), len(ref.Output))
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("record %d: %v vs %v", i, res.Output[i], ref.Output[i])
		}
	}
	if res.RawSpillBytes <= res.CompressedSpillBytes {
		t.Fatalf("no compression win reported: raw=%d sealed=%d",
			res.RawSpillBytes, res.CompressedSpillBytes)
	}
	if res.FetchBytes == 0 || res.FetchBytes > res.CompressedSpillBytes {
		t.Fatalf("fetch accounting off: fetched=%d sealed=%d",
			res.FetchBytes, res.CompressedSpillBytes)
	}
	t.Logf("cluster compression: raw=%dKB sealed=%dKB fetched=%dKB",
		res.RawSpillBytes>>10, res.CompressedSpillBytes>>10, res.FetchBytes>>10)
}

// churnRun is faultRun with the fault every churn test but one injects: a
// SIGKILL, which the coordinator sees at once as a closed connection.
func churnRun(t *testing.T, opts blexec.Options, workers int, killAfter time.Duration, env ...string) *mr.Result {
	t.Helper()
	return faultRun(t, opts, workers, killAfter, syscall.SIGKILL, env...)
}

// faultRun spawns workers, sends sig to worker 0 after faultAfter, runs the
// job, and asserts it completes with output byte-identical to the
// single-process engine and without leaking driver goroutines — the
// robustness acceptance criteria: a single worker death is a non-event.
func faultRun(t *testing.T, opts blexec.Options, workers int, faultAfter time.Duration, sig syscall.Signal, env ...string) *mr.Result {
	t.Helper()
	before := runtime.NumGoroutine()
	input := workload.Text(23, 3000, 400, 8)
	ref, err := mr.Run(apps.WordCount(), input,
		blexec.Options{Mappers: opts.Mappers, Reducers: opts.Reducers, Mode: opts.Mode})
	if err != nil {
		t.Fatal(err)
	}
	c, err := mpexec.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cmds := spawnWorkers(t, c.Addr(), workers, env...)
	if err := c.WaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(faultAfter)
		_ = cmds[0].Process.Signal(sig)
	}()
	type outcome struct {
		res *mr.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Run(apps.WordCount(), input, opts)
		done <- outcome{res, err}
	}()
	var res *mr.Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("job failed despite surviving workers: %v", o.err)
		}
		res = o.res
	case <-time.After(120 * time.Second):
		t.Fatal("job hung after worker death")
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("%d records vs %d after recovery", len(res.Output), len(ref.Output))
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("record %d differs after recovery: %v vs %v", i, res.Output[i], ref.Output[i])
		}
	}
	// The scheduler must have drained every task goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
	return res
}

// TestClusterSurvivesKillMidMap: SIGKILL a worker while every worker is
// mid-map in overlap mode. The dead worker's in-flight map re-executes on a
// survivor; parked reduce tasks re-route via invalidation + supersede
// pushes; barrier output stays byte-identical.
func TestClusterSurvivesKillMidMap(t *testing.T) {
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier}
	res := churnRun(t, opts, 3, 300*time.Millisecond, "MPEXEC_SLOW=1")
	if res.MapRetries < 1 {
		t.Fatalf("MapRetries = %d, want >= 1 (the dead worker was mid-map)", res.MapRetries)
	}
	t.Logf("recovery: %d map retries, %d reduce retries", res.MapRetries, res.ReduceRetries)
}

// TestClusterSurvivesKillMidMapStaged: the same kill under the staged
// (back-to-back waves) control protocol — recovery must not depend on the
// overlap's push stream.
func TestClusterSurvivesKillMidMapStaged(t *testing.T) {
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier, Staged: true}
	res := churnRun(t, opts, 3, 300*time.Millisecond, "MPEXEC_SLOW=1")
	if res.MapRetries < 1 {
		t.Fatalf("MapRetries = %d, want >= 1 (the dead worker was mid-map)", res.MapRetries)
	}
}

// TestClusterStoppedWorkerDeclaredDead: SIGSTOP freezes a worker mid-map
// but leaves its control connection open, so nothing short of the heartbeat
// monitor can tell — without it the frozen map never returns and the job
// hangs. The monitor must sever the worker after missedBeats silent
// intervals and the survivors finish the job byte-identically. Both ends
// run a shortened period (the real one needs 4 s of silence).
func TestClusterStoppedWorkerDeclaredDead(t *testing.T) {
	const beat = 100 * time.Millisecond
	defer mpexec.SetHeartbeatInterval(beat)()
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier}
	res := faultRun(t, opts, 3, 300*time.Millisecond, syscall.SIGSTOP,
		"MPEXEC_SLOW=1", "MPEXEC_HEARTBEAT="+beat.String())
	if res.MapRetries < 1 {
		t.Fatalf("MapRetries = %d, want >= 1 (the stopped worker was mid-map)", res.MapRetries)
	}
}

// TestClusterSurvivesKillMidReduce: fast maps, slow reducers, kill after the
// map wave — the dead worker's reduce task requeues on a survivor, and that
// survivor re-fetches the dead worker's sealed map outputs from their
// re-executed attempts.
func TestClusterSurvivesKillMidReduce(t *testing.T) {
	opts := blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier, Staged: true}
	res := churnRun(t, opts, 3, 600*time.Millisecond, "MPEXEC_SLOWRED=1")
	if res.ReduceRetries < 1 {
		t.Fatalf("ReduceRetries = %d, want >= 1 (the dead worker was mid-reduce)", res.ReduceRetries)
	}
	t.Logf("recovery: %d map re-executions for lost outputs, %d reduce retries",
		res.MapRetries, res.ReduceRetries)
}

// TestClusterSpeculation: one deliberately slow worker straggles the map
// wave; with Speculative set, the fast worker clones the straggler's map
// once the rest of the wave is done, the clone wins, and attempt IDs keep
// the duplicate completion's routing idempotent — byte-identical output.
func TestClusterSpeculation(t *testing.T) {
	input := workload.Text(26, 3000, 400, 8)
	ref, err := mr.Run(apps.WordCount(), input,
		blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier})
	if err != nil {
		t.Fatal(err)
	}
	c, err := mpexec.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spawnWorkers(t, c.Addr(), 1, "MPEXEC_SLOW=1") // the straggler
	spawnWorkers(t, c.Addr(), 1)                  // the fast worker that clones
	if err := c.WaitWorkers(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(apps.WordCount(), input, blexec.Options{
		Mappers: 4, Reducers: 3, Mode: blexec.Barrier, Speculative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("%d records vs %d", len(res.Output), len(ref.Output))
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("record %d differs under speculation: %v vs %v", i, res.Output[i], ref.Output[i])
		}
	}
	if res.BackupsLaunched < 1 {
		t.Fatalf("BackupsLaunched = %d, want >= 1 (a straggler was cloneable)", res.BackupsLaunched)
	}
	t.Logf("speculation: %d clones launched, %d won", res.BackupsLaunched, res.BackupsWon)
}

func requireSameSorted(t *testing.T, a, b []core.Record) {
	t.Helper()
	sa := append([]core.Record(nil), a...)
	sb := append([]core.Record(nil), b...)
	mr.SortOutput(sa)
	mr.SortOutput(sb)
	if len(sa) != len(sb) {
		t.Fatalf("%d vs %d records", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("record %d: %v vs %v", i, sa[i], sb[i])
		}
	}
}
