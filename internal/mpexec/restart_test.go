package mpexec_test

// Coordinator crash-restart tests: the coordinator (service included) runs
// as a real subprocess over a durable state dir, the workers are spawned by
// the test process so they survive it, and the test SIGKILLs the
// coordinator at a journal-observed phase — mid-map, mid-reduce, or with
// jobs still queued — then resumes in-process over the same state dir and
// the same (re-registering) workers, asserting byte-identical output and,
// where sealed runs survived, ReattachedMaps > 0.

import (
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"blmr/internal/apps"
	blexec "blmr/internal/exec"
	"blmr/internal/mpexec"
	"blmr/internal/wal"
	"blmr/internal/workload"
)

// restartSubs are the job streams the coordinator subprocess submits, keyed
// by preset. Deterministic (seeded inputs), barrier-mode (byte-identical
// verification), sized so the phase the test kills at lasts long enough to
// hit under the worker-side slowdown env.
func restartSubs(preset string) []submission {
	switch preset {
	case "midqueue":
		return []submission{
			{apps.WordCount(), workload.Text(41, 900, 250, 8),
				blexec.Options{Mappers: 6, Reducers: 3, Mode: blexec.Barrier}},
			{apps.Sort(), workload.Text(42, 800, 200, 8),
				blexec.Options{Mappers: 4, Reducers: 2, Mode: blexec.Barrier, SpillBytes: 8 << 10}},
			{apps.WordCount(), workload.Text(43, 900, 250, 8),
				blexec.Options{Mappers: 4, Reducers: 3, Mode: blexec.Barrier}},
		}
	default: // midmap, midreduce
		return []submission{
			{apps.WordCount(), workload.Text(41, 1500, 300, 8),
				blexec.Options{Mappers: 6, Reducers: 3, Mode: blexec.Barrier}},
		}
	}
}

// runCoordProcess is the subprocess body TestMain dispatches to under
// MPEXEC_COORD_BIND: a durable service that submits the preset's jobs and
// runs until done — or until the test SIGKILLs it mid-flight.
func runCoordProcess(bind string) error {
	stateDir := os.Getenv("MPEXEC_COORD_STATE")
	nw, _ := strconv.Atoi(os.Getenv("MPEXEC_COORD_WORKERS"))
	maxConc, _ := strconv.Atoi(os.Getenv("MPEXEC_COORD_MAXCONC"))
	c, err := mpexec.ListenOn(bind)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.WaitWorkers(nw, 30*time.Second); err != nil {
		return err
	}
	svc, err := mpexec.NewService(c, nw, mpexec.ServiceConfig{
		StateDir: stateDir, Resolver: testResolver(), MaxConcurrent: maxConc,
	})
	if err != nil {
		return err
	}
	var tks []*mpexec.Ticket
	for _, sub := range restartSubs(os.Getenv("MPEXEC_COORD_JOBS")) {
		tk, err := svc.Submit(sub.app, sub.input, sub.opts)
		if err != nil {
			return err
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			return err
		}
	}
	svc.Close()
	return nil
}

// restartCluster is one subprocess-coordinator run: its bind address and
// state dir (shared with the resuming service) and the coordinator process.
type restartCluster struct {
	addr     string
	stateDir string
	workers  int
	coord    *osexec.Cmd
}

// startRestartCluster picks a port, starts the coordinator subprocess bound
// to it, and spawns test-owned workers (with workerEnv) that dial it — and
// that survive it.
func startRestartCluster(t *testing.T, preset string, maxConc, workers int, workerEnv ...string) *restartCluster {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	rc := &restartCluster{addr: addr, stateDir: t.TempDir(), workers: workers}

	cmd := osexec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MPEXEC_COORD_BIND="+addr,
		"MPEXEC_COORD_STATE="+rc.stateDir,
		"MPEXEC_COORD_WORKERS="+strconv.Itoa(workers),
		"MPEXEC_COORD_MAXCONC="+strconv.Itoa(maxConc),
		"MPEXEC_COORD_JOBS="+preset,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn coordinator: %v", err)
	}
	rc.coord = cmd
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	spawnWorkers(t, addr, workers, append([]string{"MPEXEC_REGISTRY=1"}, workerEnv...)...)
	return rc
}

// journalKinds replays a (possibly mid-write) journal read-only and tallies
// records by kind byte.
func journalKinds(tb testing.TB, path string) map[byte]int {
	tb.Helper()
	recs, err := wal.Replay(path)
	if err != nil {
		tb.Fatalf("replay journal: %v", err)
	}
	counts := make(map[byte]int)
	for _, rec := range recs {
		if len(rec) > 0 {
			counts[rec[0]]++
		}
	}
	return counts
}

func (rc *restartCluster) journalCounts(t *testing.T) map[byte]int {
	return journalKinds(t, filepath.Join(rc.stateDir, "journal.wal"))
}

// waitJournal polls the journal until cond holds, failing if every
// submitted job completes first (the kill point was missed).
func (rc *restartCluster) waitJournal(t *testing.T, jobs int, cond func(map[byte]int) bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		counts := rc.journalCounts(t)
		if cond(counts) {
			return
		}
		if counts['d']+counts['x'] >= jobs {
			t.Fatalf("all %d jobs finished before the kill point (journal: %v)", jobs, counts)
		}
		if time.Now().After(deadline) {
			t.Fatalf("kill point not reached in %s (journal: %v)", timeout, counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the coordinator subprocess and reaps it.
func (rc *restartCluster) kill(t *testing.T) {
	t.Helper()
	if err := rc.coord.Process.Kill(); err != nil {
		t.Fatalf("kill coordinator: %v", err)
	}
	_, _ = rc.coord.Process.Wait()
}

// resume rebinds the coordinator address in-process (retrying while the
// kernel releases it), waits for the surviving workers to re-register, and
// restarts the service over the same state dir.
func (rc *restartCluster) resume(t *testing.T) *mpexec.Service {
	t.Helper()
	var c *mpexec.Coordinator
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		c, err = mpexec.ListenOn(rc.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", rc.addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.WaitWorkers(rc.workers, 60*time.Second); err != nil {
		t.Fatalf("workers did not re-register: %v", err)
	}
	s, err := mpexec.NewService(c, rc.workers, mpexec.ServiceConfig{
		StateDir: rc.stateDir, Resolver: testResolver(),
	})
	if err != nil {
		t.Fatalf("resume service: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestClusterRestartMidMap: SIGKILL the coordinator with part of the map
// wave journaled, resume, and require byte-identical output with at least
// one map recovered by re-attach instead of re-execution.
func TestClusterRestartMidMap(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-restart test")
	}
	rc := startRestartCluster(t, "midmap", 0, 3, "MPEXEC_SLOW=1")
	rc.waitJournal(t, 1, func(c map[byte]int) bool { return c[jMapDoneKind] >= 2 }, 60*time.Second)
	rc.kill(t)
	s := rc.resume(t)
	resumed := s.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	res, err := resumed[0].Wait()
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res.ReattachedMaps == 0 {
		t.Fatalf("no maps re-attached (journal had completed maps on live workers)")
	}
	checkAgainstReference(t, "midmap-resume", restartSubs("midmap")[0], res)
}

// TestClusterRestartMidReduce: SIGKILL the coordinator after the map wave
// and at least one reduce completion are journaled — resume re-attaches the
// whole map wave, splices the journaled reduce output, re-runs the rest.
func TestClusterRestartMidReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-restart test")
	}
	rc := startRestartCluster(t, "midreduce", 0, 3, "MPEXEC_SLOWRED=1")
	rc.waitJournal(t, 1, func(c map[byte]int) bool { return c['r'] >= 1 }, 60*time.Second)
	rc.kill(t)
	s := rc.resume(t)
	resumed := s.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	res, err := resumed[0].Wait()
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res.ReattachedMaps == 0 {
		t.Fatalf("no maps re-attached after a fully journaled map wave")
	}
	checkAgainstReference(t, "midreduce-resume", restartSubs("midreduce")[0], res)
}

// TestClusterRestartMidQueue: a 1-concurrent service with three admitted
// jobs is killed after the first completes — resume re-enters exactly the
// unfinished jobs (running and still-queued), each byte-identical.
func TestClusterRestartMidQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash-restart test")
	}
	subs := restartSubs("midqueue")
	rc := startRestartCluster(t, "midqueue", 1, 3, "MPEXEC_SLOW=1")
	rc.waitJournal(t, len(subs), func(c map[byte]int) bool { return c['d'] >= 1 }, 120*time.Second)
	rc.kill(t)
	s := rc.resume(t)
	resumed := s.Resumed()
	if len(resumed) == 0 || len(resumed) > len(subs)-1 {
		t.Fatalf("resumed %d jobs, want 1..%d", len(resumed), len(subs)-1)
	}
	for _, tk := range resumed {
		if tk.ID <= 0 || tk.ID >= len(subs) {
			t.Fatalf("resumed ticket %d out of range (job 0 completed pre-kill)", tk.ID)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("resumed job %d failed: %v", tk.ID, err)
		}
		sub := subs[tk.ID]
		checkAgainstReference(t, sub.app.Name+"-resume", sub, res)
	}
}

// benchCoordRestart measures restart-to-completion after a coordinator
// crash at the map/reduce boundary of a slow-map, slow-reduce WordCount.
// The timed region is the full recovery path: rebind the address, wait for
// the three workers to re-register, replay the journal, and run the
// resumed job to completion. Reattach resumes against the intact journal —
// the whole map wave re-attaches from surviving sealed runs, so only the
// reduce tail re-runs; Cold resumes against the same journal with its
// map/reduce completions stripped, re-executing everything. Re-attach must
// beat cold by roughly the map wave (DESIGN.md §14 quotes the pair).
func benchCoordRestart(b *testing.B, cold bool) {
	sub := submission{apps.WordCount(), workload.Text(47, 1500, 300, 8),
		blexec.Options{Mappers: 6, Reducers: 3, Mode: blexec.Barrier}}
	reattached := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := mpexec.Listen()
		if err != nil {
			b.Fatal(err)
		}
		addr := c.Addr()
		stateDir := b.TempDir()
		path := filepath.Join(stateDir, "journal.wal")
		spawnWorkers(b, addr, 3, "MPEXEC_REGISTRY=1", "MPEXEC_SLOW=1", "MPEXEC_SLOWRED=1")
		if err := c.WaitWorkers(3, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		svc, err := mpexec.NewService(c, 3, mpexec.ServiceConfig{
			StateDir: stateDir, Resolver: testResolver(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Submit(sub.app, sub.input, sub.opts); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for journalKinds(b, path)[jMapDoneKind] < sub.opts.Mappers {
			if time.Now().After(deadline) {
				b.Fatal("map wave not journaled in time")
			}
			time.Sleep(2 * time.Millisecond)
		}
		svc.Abandon()
		if cold {
			// Strip the completion records: same admission, no recoverable
			// task state — the re-execute-everything baseline.
			log, recs, err := wal.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			var kept [][]byte
			for _, rec := range recs {
				if len(rec) > 0 && (rec[0] == jMapDoneKind || rec[0] == jReduceDoneKind) {
					continue
				}
				kept = append(kept, rec)
			}
			if err := log.Compact(kept); err != nil {
				b.Fatal(err)
			}
			_ = log.Close()
		}

		b.StartTimer()
		var c2 *mpexec.Coordinator
		rebind := time.Now().Add(10 * time.Second)
		for {
			if c2, err = mpexec.ListenOn(addr); err == nil {
				break
			}
			if time.Now().After(rebind) {
				b.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := c2.WaitWorkers(3, 60*time.Second); err != nil {
			b.Fatal(err)
		}
		svc2, err := mpexec.NewService(c2, 3, mpexec.ServiceConfig{
			StateDir: stateDir, Resolver: testResolver(),
		})
		if err != nil {
			b.Fatal(err)
		}
		resumed := svc2.Resumed()
		if len(resumed) != 1 {
			b.Fatalf("resumed %d jobs, want 1", len(resumed))
		}
		res, err := resumed[0].Wait()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !cold && res.ReattachedMaps == 0 {
			b.Fatal("re-attach benchmark recovered nothing")
		}
		if cold && res.ReattachedMaps != 0 {
			b.Fatal("cold benchmark unexpectedly re-attached maps")
		}
		reattached += res.ReattachedMaps
		svc2.Close()
		c2.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(reattached)/float64(b.N), "reattached/job")
}

// Journal kind bytes mirrored for the test package (the schema doc in
// internal/mpexec/journal.go is authoritative).
const (
	jMapDoneKind    = byte('w')
	jReduceDoneKind = byte('r')
)

func BenchmarkCoordRestart_Cold(b *testing.B) {
	benchCoordRestart(b, true)
}

func BenchmarkCoordRestart_Reattach(b *testing.B) {
	benchCoordRestart(b, false)
}
