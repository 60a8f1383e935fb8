package main

// The multi-tenant job service face of cmd/blmr: -serve runs a long-lived
// coordinator with a local worker pool and admits a stream of jobs
// submitted over a newline-delimited JSON protocol; -submit is the
// matching client. One submission per connection:
//
//	-> {"app":"wordcount","size":0.01,"mode":"barrier","reducers":3,
//	    "spillBytes":8192,"compress":"delta","verify":true,"chaosKillMs":200}
//	<- {"id":0,"ok":true,"records":1234,"wall_ms":87.5,"verified":true}
//
// Workers are this binary re-executed (SpawnLocal appends -worker-coord);
// under -serve they run the multi-job protocol with a registry resolver, so
// one pool carries concurrently admitted jobs with differing apps, modes
// and spill budgets. SIGTERM/SIGINT drains: admitted jobs finish, new
// submissions are refused, workers are torn down, then the process exits
// cleanly — the lifecycle CI's service-smoke job drives.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"blmr/internal/codec"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
)

// submitRequest is one job submission. A zero Mode, Reducers, SpillBytes or
// Compress takes the serve process's own -mode, -reducers, -spill-bytes or
// -compress; a zero App is the serve process's -app and a zero Size is 0.01.
// Everything else about the job (map tasks, store, fan-in, staging, ...) is
// the serve process's flags.
type submitRequest struct {
	App        string  `json:"app"`
	Size       float64 `json:"size"`
	Mode       string  `json:"mode"`
	Reducers   int     `json:"reducers"`
	SpillBytes int64   `json:"spillBytes"`
	Compress   string  `json:"compress"`
	Verify     bool    `json:"verify"`
	// ChaosKillMs, when > 0, SIGKILLs one pool worker that long after this
	// job is admitted — fault injection against the whole service; every
	// admitted job must still complete.
	ChaosKillMs int `json:"chaosKillMs"`
}

// submitReply reports one submission's outcome.
type submitReply struct {
	ID       int     `json:"id"`
	OK       bool    `json:"ok"`
	Records  int     `json:"records"`
	WallMS   float64 `json:"wall_ms"`
	Verified bool    `json:"verified,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// registryResolver is the serve-mode worker's job registry: every
// size-independent app, resolved by the name the coordinator ships in the
// job-start frame. KNN is excluded — its reduce function bakes in a
// dataset-derived parameter the name alone cannot reconstruct.
func registryResolver(combine bool) mpexec.JobResolver {
	return func(name string) (mr.Job, bool) {
		if name == "knn" {
			return mr.Job{}, false
		}
		app, _, _, ok := buildApp(name, 1, 100)
		if !ok {
			return mr.Job{}, false
		}
		return app.WithCombiner(combine), true
	}
}

// submitRequest is the -submit form's request: this process's flags.
func (o *options) submitRequest() submitRequest {
	return submitRequest{
		App: o.app, Size: o.size, Mode: o.mode.String(), Reducers: o.reducers,
		SpillBytes: o.spillBytes, Compress: o.comp.String(), Verify: o.verify,
		ChaosKillMs: int(o.chaosKill.Milliseconds()),
	}
}

// withRequest returns the serve process's options overlaid with one
// submission's non-zero fields — the options that job runs under.
func (o options) withRequest(req submitRequest) (_ options, err error) {
	if req.App != "" {
		o.app = req.App
	}
	if o.size = req.Size; o.size <= 0 {
		o.size = 0.01
	}
	if req.Mode != "" {
		if o.mode, err = parseMode(req.Mode); err != nil {
			return o, err
		}
	}
	if req.Reducers > 0 {
		o.reducers = req.Reducers
	}
	if req.SpillBytes > 0 {
		o.spillBytes = req.SpillBytes
	}
	if req.Compress != "" {
		if o.comp, err = codec.ParseCompression(req.Compress); err != nil {
			return o, err
		}
	}
	o.verify = req.Verify
	o.chaosKill = time.Duration(req.ChaosKillMs) * time.Millisecond
	return o, nil
}

// serviceConfig is the one mpexec.ServiceConfig of a -serve process, fresh
// or resumed.
func (o *options) serviceConfig() mpexec.ServiceConfig {
	return mpexec.ServiceConfig{
		MaxQueued:     o.maxQueued,
		MaxConcurrent: o.maxConcurrent,
		Policy:        o.policy,
		StateDir:      o.stateDir,
		Resolver:      registryResolver(o.combine),
	}
}

// server is one -serve process: its flags, its pool and its service.
type server struct {
	o         *options
	lc        *mpexec.LocalCluster
	svc       *mpexec.Service
	chaosOnce sync.Once
}

// runServe bootstraps the pool and serves submissions until SIGTERM. With
// -state-dir the service journals admissions and task completions there
// and records the coordinator's control address, so a SIGKILLed serve
// process can be brought back with -resume over the same directory (the
// orphaned workers keep their sealed runs and re-dial that address).
func runServe(o *options) {
	if o.workers < 1 {
		fatal(2, "-serve needs -workers N (the local pool size)")
	}
	lc, err := mpexec.SpawnLocal(os.Args[1:], o.workers, 60*time.Second)
	if err != nil {
		fatal(1, "serve:", err)
	}
	defer lc.Teardown()
	if o.stateDir != "" {
		if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
			fatal(1, "serve:", err)
		}
		// -resume must rebind this exact address: the orphaned workers
		// re-dial the coordinator address they were spawned with.
		if err := os.WriteFile(coordAddrPath(o.stateDir),
			[]byte(lc.Coord.Addr()+"\n"), 0o644); err != nil {
			fatal(1, "serve:", err)
		}
	}
	svc, err := mpexec.NewService(lc.Coord, o.workers, o.serviceConfig())
	if err != nil {
		fatal(1, "serve:", err)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal(1, "serve:", err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "serve: %v — draining admitted jobs\n", s)
		_ = ln.Close()
	}()
	fmt.Printf("serve: %d workers, policy=%q, accepting jobs on %s\n",
		o.workers, o.policy, ln.Addr())
	srv := &server{o: o, lc: lc, svc: svc}
	var conns sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed: drain
		}
		conns.Add(1)
		go func(conn net.Conn) {
			defer conns.Done()
			defer conn.Close()
			srv.handle(conn)
		}(conn)
	}
	conns.Wait()
	svc.Close()
	fmt.Println("serve: drained, shutting down workers")
}

// handle runs one submission end to end: decode, admit, wait, optionally
// verify against the in-process engine, reply.
func (s *server) handle(conn net.Conn) {
	fail := func(id int, err error) {
		_ = json.NewEncoder(conn).Encode(submitReply{ID: id, Error: err.Error()})
	}
	var req submitRequest
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&req); err != nil {
		fail(-1, fmt.Errorf("bad request: %w", err))
		return
	}
	o, err := s.o.withRequest(req)
	if err != nil {
		fail(-1, err)
		return
	}
	job, ds, _, err := o.loadApp()
	if err != nil {
		fail(-1, err)
		return
	}
	if o.chaosKill > 0 && o.workers < 2 {
		fail(-1, fmt.Errorf("chaosKillMs needs at least 2 workers to leave a survivor"))
		return
	}
	input := slices.Concat(ds.Splits...)
	opts := o.mrOptions()
	tk, err := s.svc.Submit(job, input, opts)
	if err != nil {
		fail(-1, err)
		return
	}
	if o.chaosKill > 0 {
		s.chaosOnce.Do(func() {
			time.AfterFunc(o.chaosKill, func() {
				if err := s.lc.Kill(0); err == nil {
					fmt.Fprintf(os.Stderr, "chaos: killed worker 0 %s after job %d was admitted\n",
						o.chaosKill, tk.ID)
				}
			})
		})
	}
	start := time.Now()
	res, err := tk.Wait()
	if err != nil {
		fail(tk.ID, err)
		return
	}
	reply := submitReply{ID: tk.ID, OK: true, Records: len(res.Output),
		WallMS: time.Since(start).Seconds() * 1e3}
	if o.verify {
		if _, err := verifyOutput(job, input, opts, res.Output); err != nil {
			fail(tk.ID, err)
			return
		}
		reply.Verified = true
	}
	_ = json.NewEncoder(conn).Encode(reply)
}

// runSubmit is the client: one connection, one job, one reply.
func runSubmit(addr string, req submitRequest) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		fatal(1, "submit:", err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		fatal(1, "submit:", err)
	}
	var reply submitReply
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&reply); err != nil {
		fatal(1, "submit: reading reply:", err)
	}
	if !reply.OK {
		fatal(1, fmt.Sprintf("submit: job %d failed: %s", reply.ID, reply.Error))
	}
	verified := ""
	if reply.Verified {
		verified = "  verified: OK"
	}
	fmt.Printf("job %d: %d records in %.1fms%s\n", reply.ID, reply.Records, reply.WallMS, verified)
}

// coordAddrPath is where -serve -state-dir records the coordinator's
// control address for -resume to rebind.
func coordAddrPath(stateDir string) string {
	return filepath.Join(stateDir, "coord.addr")
}

// runResume is the crash-recovery path: rebind the journaled coordinator
// address, wait for the orphaned workers to re-register (they re-dial with
// capped backoff and advertise their surviving sealed runs), replay the
// journal, run every resumed job to completion — journaled map completions
// whose sealed runs survive re-attach instead of re-executing — verify each
// output against the single-process in-memory reference, and exit. Exit
// status 0 means every resumed job completed and verified.
func runResume(o *options) {
	if o.stateDir == "" {
		fatal(2, "-resume needs -state-dir (the crashed service's journal)")
	}
	if o.workers < 1 {
		fatal(2, "-resume needs -workers N (how many workers to wait for)")
	}
	raw, err := os.ReadFile(coordAddrPath(o.stateDir))
	if err != nil {
		fatal(1, "resume:", err)
	}
	addr := strings.TrimSpace(string(raw))
	var c *mpexec.Coordinator
	rebind := time.Now().Add(15 * time.Second)
	for {
		if c, err = mpexec.ListenOn(addr); err == nil {
			break
		}
		if time.Now().After(rebind) {
			fatal(1, fmt.Sprintf("resume: rebind %s: %v", addr, err))
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("resume: rebound %s, waiting for %d returning workers\n", addr, o.workers)
	if err := c.WaitWorkers(o.workers, 90*time.Second); err != nil {
		fatal(1, "resume:", err)
	}
	svc, err := mpexec.NewService(c, o.workers, o.serviceConfig())
	if err != nil {
		fatal(1, "resume:", err)
	}
	resumed := svc.Resumed()
	fmt.Printf("resume: %d journaled jobs re-entered\n", len(resumed))
	failed := 0
	reattached := 0
	for _, tk := range resumed {
		res, err := tk.Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume: job %d failed: %v\n", tk.ID, err)
			failed++
			continue
		}
		reattached += res.ReattachedMaps
		job, input, opts := tk.Spec()
		if _, err := verifyOutput(job, input, opts, res.Output); err != nil {
			fmt.Fprintf(os.Stderr, "resume: job %d: %v\n", tk.ID, err)
			failed++
			continue
		}
		fmt.Printf("resume: job %d (%s): %d records, %d re-attached maps, verified OK\n",
			tk.ID, job.Name, len(res.Output), res.ReattachedMaps)
	}
	svc.Close()
	_ = c.Close()
	fmt.Printf("resume: drained — %d jobs, %d failed, %d re-attached maps total\n",
		len(resumed), failed, reattached)
	if failed > 0 {
		os.Exit(1)
	}
}

// runJournalStat prints one line of per-kind journal record counts —
// stable, grep-friendly, safe to run against a live service (read-only
// replay that tolerates a torn tail). CI polls it to time the kill.
func runJournalStat(stateDir string) {
	if stateDir == "" {
		fatal(2, "-journal-stat needs -state-dir")
	}
	st, err := mpexec.ReadJournalStats(filepath.Join(stateDir, "journal.wal"))
	if err != nil {
		fatal(1, "journal-stat:", err)
	}
	fmt.Printf("journal: records=%d admitted=%d started=%d mapdone=%d reducedone=%d done=%d aborted=%d live=%d livemapdone=%d\n",
		st.Records, st.Admitted, st.Started, st.MapDone, st.ReduceDone, st.Done, st.Aborted, st.Live, st.LiveMapDone)
}
