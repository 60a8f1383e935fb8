package mpexec_test

// Sim-vs-real parity for worker-churn recovery: harness.Parity's
// "worker-kill" row models losing one of three workers mid-job; this test
// kills a real worker at the same relative point and requires the measured
// relative overhead to agree within the row's tolerance. The band is wide
// (the sim predicts a calibrated multi-GB cluster, this is a laptop-scale
// wall-clock job), but it pins the sign and the order of magnitude of
// recovery cost to the model.

import (
	"testing"
	"time"

	"blmr/internal/apps"
	blexec "blmr/internal/exec"
	"blmr/internal/harness"
	"blmr/internal/mpexec"
	"blmr/internal/mr"
	"blmr/internal/workload"
)

// checkParity is the one band check the three sim-vs-real parity tests
// share: measured against the named harness.Parity row's prediction, within
// that row's tolerance.
func checkParity(t *testing.T, row string, measured float64) {
	t.Helper()
	report, err := harness.CheckParity(row, measured)
	t.Log(report)
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterRecoveryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock parity run")
	}
	input := workload.Text(27, 3000, 400, 8)
	opts := blexec.Options{Mappers: 6, Reducers: 3, Mode: blexec.Barrier}
	run := func(killAfter time.Duration) (*mr.Result, float64) {
		c, err := mpexec.Listen()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cmds := spawnWorkers(t, c.Addr(), 3, "MPEXEC_SLOW=1")
		if err := c.WaitWorkers(3, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if killAfter > 0 {
			go func() {
				time.Sleep(killAfter)
				_ = cmds[0].Process.Kill()
			}()
		}
		start := time.Now()
		res, err := c.Run(apps.WordCount(), input, opts)
		if err != nil {
			t.Fatalf("job failed (killAfter=%v): %v", killAfter, err)
		}
		return res, time.Since(start).Seconds()
	}

	_, baseWall := run(0)
	killedRes, killedWall := run(time.Duration(harness.ParityKillFrac * baseWall * float64(time.Second)))
	measured := killedWall/baseWall - 1
	t.Logf("recovery overhead: %.2fs -> %.2fs, %d map retries", baseWall, killedWall, killedRes.MapRetries)
	if killedRes.MapRetries < 1 {
		t.Fatalf("the kill at %.0f%% of the base run cost no map re-execution", harness.ParityKillFrac*100)
	}
	if measured < -0.25 {
		t.Fatalf("killed run substantially faster than baseline (%.2f): measurement is broken", measured)
	}
	checkParity(t, "worker-kill", measured)
}
