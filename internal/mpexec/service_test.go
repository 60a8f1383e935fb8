package mpexec_test

// Multi-tenant job service tests: real worker subprocesses (the registry
// variant of the helper-process pattern) carrying several admitted jobs
// concurrently on one pool.

import (
	"errors"
	osexec "os/exec"
	"testing"
	"time"

	"blmr/internal/apps"
	"blmr/internal/core"
	blexec "blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

// serviceCluster spins up a coordinator plus n registry workers and a
// service over them.
func serviceCluster(t testing.TB, n int, cfg mpexec.ServiceConfig, env ...string) (*mpexec.Service, []*osexec.Cmd) {
	t.Helper()
	c, err := mpexec.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cmds := spawnWorkers(t, c.Addr(), n, append([]string{"MPEXEC_REGISTRY=1"}, env...)...)
	if err := c.WaitWorkers(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	s, err := mpexec.NewService(c, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, cmds
}

// submission is one test job: the app, its input, and its options.
type submission struct {
	app   apps.App
	input []core.Record
	opts  blexec.Options
}

// threeJobs is the canonical heterogeneous stream: wordcount and sort in
// barrier mode plus a pipelined wordcount, with differing reducer counts
// and spill budgets — every option the 'J' frame must carry per job.
func threeJobs() []submission {
	return []submission{
		{apps.WordCount(), workload.Text(31, 1500, 300, 8),
			blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier}},
		{apps.Sort(), workload.Text(32, 1200, 250, 8),
			blexec.Options{Mappers: 3, Reducers: 2, Mode: blexec.Barrier, SpillBytes: 8 << 10}},
		{apps.WordCount(), workload.Text(33, 1500, 300, 8),
			blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Pipelined}},
	}
}

// checkAgainstReference runs the same job in-process and requires
// byte-identical output for barrier mode (pipelined compares multisets via
// sorted copies upstream; here all barrier submissions are exact).
func checkAgainstReference(t *testing.T, tag string, sub submission, res *mr.Result) {
	t.Helper()
	ref, err := mr.Run(sub.app, sub.input, sub.opts)
	if err != nil {
		t.Fatalf("%s: reference run: %v", tag, err)
	}
	if len(res.Output) != len(ref.Output) {
		t.Fatalf("%s: %d records vs %d reference", tag, len(res.Output), len(ref.Output))
	}
	exact := sub.opts.Mode == blexec.Barrier
	if !exact {
		return // pipelined record order is timing-dependent; count suffices here
	}
	for i := range res.Output {
		if res.Output[i] != ref.Output[i] {
			t.Fatalf("%s: record %d differs: %v vs %v", tag, i, res.Output[i], ref.Output[i])
		}
	}
}

// TestServiceConcurrentJobsByteIdentical: three overlapping heterogeneous
// jobs on one three-worker pool, under a placement policy and a shared slot
// ledger — every barrier job's output byte-identical to the in-process
// engine. The core multi-tenancy acceptance check.
func TestServiceConcurrentJobsByteIdentical(t *testing.T) {
	s, _ := serviceCluster(t, 3, mpexec.ServiceConfig{
		MaxConcurrent: 3, Policy: "least-loaded",
	})
	subs := threeJobs()
	tickets := make([]*mpexec.Ticket, len(subs))
	for i, sub := range subs {
		tk, err := s.Submit(sub.app, sub.input, sub.opts)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		checkAgainstReference(t, subs[i].app.Name, subs[i], res)
	}
}

// TestServiceSurvivesKillMidStream: SIGKILL one worker while three admitted
// jobs are in flight — every job completes and every barrier output stays
// byte-identical. Churn hits the pool, not any one tenant.
func TestServiceSurvivesKillMidStream(t *testing.T) {
	s, cmds := serviceCluster(t, 3, mpexec.ServiceConfig{
		MaxConcurrent: 3, Policy: "least-loaded",
	}, "MPEXEC_SLOW=1")
	subs := threeJobs()
	tickets := make([]*mpexec.Ticket, len(subs))
	for i, sub := range subs {
		tk, err := s.Submit(sub.app, sub.input, sub.opts)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	time.Sleep(300 * time.Millisecond) // let all three jobs get mid-flight
	_ = cmds[0].Process.Kill()
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("job %d failed despite surviving workers: %v", i, err)
		}
		checkAgainstReference(t, subs[i].app.Name, subs[i], res)
	}
}

// TestServiceJobFailureIsolated: a job whose name no worker resolves fails
// after its attempt budget — while a concurrent healthy job completes
// byte-identically. One tenant's failure cannot leak into another.
func TestServiceJobFailureIsolated(t *testing.T) {
	s, _ := serviceCluster(t, 2, mpexec.ServiceConfig{MaxConcurrent: 2})
	bad := apps.WordCount()
	bad.Name = "no-such-app"
	badTk, err := s.Submit(bad, workload.Text(41, 300, 100, 8),
		blexec.Options{Mappers: 2, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := threeJobs()[0]
	goodTk, err := s.Submit(good.app, good.input, good.opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badTk.Wait(); err == nil {
		t.Fatal("unresolvable job must fail")
	}
	res, err := goodTk.Wait()
	if err != nil {
		t.Fatalf("healthy job caught neighbor's failure: %v", err)
	}
	checkAgainstReference(t, "wordcount", good, res)
}

// TestServiceAdmissionControl: with one run slot and a one-deep queue, a
// third overlapping submission is refused with ErrQueueFull (backpressure),
// and a closed service refuses with ErrServiceClosed.
func TestServiceAdmissionControl(t *testing.T) {
	s, _ := serviceCluster(t, 2, mpexec.ServiceConfig{
		MaxQueued: 1, MaxConcurrent: 1,
	}, "MPEXEC_SLOW=1")
	subs := threeJobs()
	first, err := s.Submit(subs[0].app, subs[0].input, subs[0].opts)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the dispatcher has moved the first job from queue to
	// running; the queue is then empty with the run slot held.
	deadline := time.Now().Add(10 * time.Second)
	for {
		q, r := s.Stats()
		if q == 0 && r == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (queued=%d running=%d)", q, r)
		}
		time.Sleep(5 * time.Millisecond)
	}
	second, err := s.Submit(subs[1].app, subs[1].input, subs[1].opts)
	if err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	if _, err := s.Submit(subs[2].app, subs[2].input, subs[2].opts); !errors.Is(err, mpexec.ErrQueueFull) {
		t.Fatalf("third submission = %v, want ErrQueueFull", err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close() // idempotent with the cleanup; drains admitted jobs
	if _, err := s.Submit(subs[2].app, subs[2].input, subs[2].opts); !errors.Is(err, mpexec.ErrServiceClosed) {
		t.Fatalf("submission after close = %v, want ErrServiceClosed", err)
	}
}
