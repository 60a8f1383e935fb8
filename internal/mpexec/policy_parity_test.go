package mpexec_test

// Sim-vs-real parity for placement policies: harness.Parity's "policy" row
// models the canonical skewed stream — two one-map jobs plus one four-map
// job arriving together on three one-map-slot workers — where every job's
// round-robin cursor piles onto worker 0 while least-loaded spreads the
// maps. This test runs the same stream on the real multi-tenant service
// under both policies and requires the measured makespan ratio to agree
// with the simulated one within the row's tolerance. The band is wide
// (the sim stream is virtual-time clean, this is wall clock with per-job
// setup), but it pins the direction and rough size of the policy gap to
// the model.

import (
	"testing"
	"time"

	"blmr/internal/apps"
	blexec "blmr/internal/exec"
	"blmr/internal/harness"
	"blmr/internal/mpexec"
	"blmr/internal/workload"
)

// skewedSubmissions mirrors the sim's [1, 1, 4]-map stream: per-map work is
// fixed at 150 records (MPEXEC_SLOW sleeps 2ms per record, so each map task
// runs ~300ms and placement decides the makespan).
func skewedSubmissions() []submission {
	var subs []submission
	for i, maps := range harness.ParityStream {
		subs = append(subs, submission{
			app:   apps.WordCount(),
			input: workload.Text(uint64(61+i), 150*maps, 120, 8),
			opts:  blexec.Options{Mappers: maps, Reducers: 2, Mode: blexec.Barrier},
		})
	}
	return subs
}

func TestClusterPolicyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock parity run")
	}
	run := func(policy string) float64 {
		s, _ := serviceCluster(t, 3, mpexec.ServiceConfig{
			MaxConcurrent: 3, PoolMapSlots: 1, Policy: policy,
		}, "MPEXEC_SLOW=1")
		subs := skewedSubmissions()
		start := time.Now()
		tickets := make([]*mpexec.Ticket, len(subs))
		for i, sub := range subs {
			if i > 0 {
				// Stagger arrivals so earlier jobs' dispatches are on the
				// shared slot ledger when later jobs place (the sim's
				// sequential-arrival ledger sees the same ordering; the
				// load-blind round-robin stripe is unaffected).
				time.Sleep(50 * time.Millisecond)
			}
			tk, err := s.Submit(sub.app, sub.input, sub.opts)
			if err != nil {
				t.Fatalf("%s: submit %d: %v", policy, i, err)
			}
			tickets[i] = tk
		}
		for i, tk := range tickets {
			res, err := tk.Wait()
			if err != nil {
				t.Fatalf("%s: job %d failed: %v", policy, i, err)
			}
			checkAgainstReference(t, policy, subs[i], res)
		}
		wall := time.Since(start).Seconds()
		s.Close()
		return wall
	}

	rrWall := run("round-robin")
	llWall := run("least-loaded")
	measured := llWall / rrWall
	t.Logf("skewed-stream makespan: round-robin %.2fs, least-loaded %.2fs", rrWall, llWall)
	if measured >= 1 {
		t.Fatalf("least-loaded did not beat round-robin on the skewed stream: %.2fs vs %.2fs", llWall, rrWall)
	}
	checkParity(t, "policy", measured)
}
