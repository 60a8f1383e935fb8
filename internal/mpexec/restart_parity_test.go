package mpexec_test

// Sim-vs-real parity for coordinator crash-restart: harness.Parity's
// "coord-restart" row models the control plane dying mid-map and resuming
// from its journal with sealed-run re-attach; this test abandons a real
// durable service at the same relative point, resumes it over the same
// state dir and workers, and requires the measured relative overhead to
// agree within the row's tolerance. As with the worker-churn parity band,
// the width absorbs wall-clock noise while pinning the sign and the order of
// magnitude of recovery cost to the model.

import (
	"path/filepath"
	"testing"
	"time"

	"blmr/internal/apps"
	blexec "blmr/internal/exec"
	"blmr/internal/harness"
	"blmr/internal/mpexec"
	"blmr/internal/workload"
)

func TestCoordRestartParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock parity run")
	}
	input := workload.Text(27, 3000, 400, 8)
	// 12 small map tasks rather than 6: completions journal every fraction
	// of a second, so a crash anywhere past the first wave finds sealed
	// runs to re-attach regardless of wall-clock jitter.
	opts := blexec.Options{Mappers: 12, Reducers: 3, Mode: blexec.Barrier}

	// One full run through the durable service; killAfter <= 0 runs
	// undisturbed, otherwise the service is abandoned (the crash) that long
	// after submission and a successor resumes over the same state dir.
	run := func(killAfter time.Duration) (reattached int, wall float64) {
		c, err := mpexec.Listen()
		if err != nil {
			t.Fatal(err)
		}
		addr := c.Addr()
		stateDir := t.TempDir()
		spawnWorkers(t, addr, 3, "MPEXEC_REGISTRY=1", "MPEXEC_SLOW=1")
		if err := c.WaitWorkers(3, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		svc, err := mpexec.NewService(c, 3, mpexec.ServiceConfig{
			StateDir: stateDir, Resolver: testResolver(),
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tk, err := svc.Submit(apps.WordCount(), input, opts)
		if err != nil {
			t.Fatal(err)
		}
		if killAfter <= 0 {
			res, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			wall = time.Since(start).Seconds()
			svc.Close()
			c.Close()
			return res.ReattachedMaps, wall
		}
		// The crash comes killAfter into the run, but never before the journal
		// shows a map to re-attach: on a loaded host the first wave can
		// outlast 40% of an unloaded base run.
		time.Sleep(killAfter)
		journal := filepath.Join(stateDir, "journal.wal")
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if st, err := mpexec.ReadJournalStats(journal); err == nil && st.LiveMapDone > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no map completion journaled in 30s")
			}
		}
		svc.Abandon()
		_, _ = tk.Wait() // dies with the abandoned service
		var c2 *mpexec.Coordinator
		rebind := time.Now().Add(10 * time.Second)
		for {
			if c2, err = mpexec.ListenOn(addr); err == nil {
				break
			}
			if time.Now().After(rebind) {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		defer c2.Close()
		if err := c2.WaitWorkers(3, 60*time.Second); err != nil {
			t.Fatal(err)
		}
		svc2, err := mpexec.NewService(c2, 3, mpexec.ServiceConfig{
			StateDir: stateDir, Resolver: testResolver(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer svc2.Close()
		resumed := svc2.Resumed()
		if len(resumed) != 1 {
			t.Fatalf("resumed %d jobs, want 1", len(resumed))
		}
		res, err := resumed[0].Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res.ReattachedMaps, time.Since(start).Seconds()
	}

	_, baseWall := run(0)
	reattached, resumedWall := run(time.Duration(harness.ParityKillFrac * baseWall * float64(time.Second)))
	measured := resumedWall/baseWall - 1
	t.Logf("restart overhead: %.2fs -> %.2fs, %d maps re-attached", baseWall, resumedWall, reattached)
	if reattached < 1 {
		t.Fatalf("the crash at %.0f%% of the base run re-attached no sealed runs", harness.ParityKillFrac*100)
	}
	if measured < -0.25 {
		t.Fatalf("resumed run substantially faster than baseline (%.2f): measurement is broken", measured)
	}
	checkParity(t, "coord-restart", measured)
}
