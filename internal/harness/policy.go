package harness

// Placement-policy tuning for the multi-tenant job service. The skewed
// stream — several one-map jobs arriving alongside one many-map job on a
// pool with one map slot per node — is the service's canonical pathology:
// every job's round-robin cursor starts at worker 0, so the load-blind
// stripe serializes the pile-up there while other nodes idle, and a
// load-aware policy spreads it. PolicySweep measures that gap in the
// simulator across skew levels, and Parity's "policy" row reduces it to the
// makespan ratio the real engine's parity test pins its wall-clock
// measurement against.

import (
	"fmt"

	"blmr/internal/apps"
	"blmr/internal/simmr"
	"blmr/internal/workload"
)

// policyCluster is the sweep's testbed: `workers` identical nodes with a
// single map slot each, so map placement alone decides the makespan.
func policyCluster(workers int) simmr.Config {
	cfg := simmr.DefaultConfig()
	cfg.Cluster.Nodes = workers
	cfg.Cluster.MapSlots = 1
	cfg.Cluster.ReduceSlots = 2
	cfg.Cluster.SpeedSpread = 0
	cfg.Replication = 2
	return cfg
}

// policyStream builds one barrier WordCount job per entry of mapCounts
// (the entry is the job's map-task count), all arriving together. Map CPU
// is made the dominant cost so co-located maps serialize on the one-slot
// nodes.
func policyStream(e *simmr.Engine, mapCounts []int, workers int) []simmr.StreamJob {
	jobs := make([]simmr.StreamJob, 0, len(mapCounts))
	for i, chunks := range mapCounts {
		job := apps.WordCount()
		job.Name = fmt.Sprintf("policy-job-%d", i)
		costs := simmr.DefaultCosts()
		costs.MapCPUPerRecord = 1e-3
		spec := simmr.JobSpec{Job: job, Reducers: 2, Mode: simmr.Barrier, Workers: workers, Costs: costs}
		input := e.Ingest(job.Name,
			workload.SplitEvenly(workload.Text(uint64(60+i), 600*chunks, 120, 8), chunks))
		jobs = append(jobs, simmr.StreamJob{Spec: spec, Input: input})
	}
	return jobs
}

// PolicyStreamMakespan simulates the mapCounts stream on a fresh
// `workers`-node engine under the named policy and returns the stream
// makespan. A failed job or an unknown policy returns an error.
func PolicyStreamMakespan(mapCounts []int, workers int, policy string) (float64, error) {
	e := simmr.NewEngine(policyCluster(workers))
	sr, err := e.RunStream(policyStream(e, mapCounts, workers), policy)
	if err != nil {
		return 0, err
	}
	for i, r := range sr.Jobs {
		if r == nil || r.Failed {
			return 0, fmt.Errorf("harness: policy stream job %d failed under %q", i, policy)
		}
	}
	return sr.Makespan, nil
}

// PolicySweep sweeps the stream's skew — two one-map jobs plus one job of
// `skew` maps, all arriving together on a `workers`-node pool — and
// reports the makespan under every placement policy. As skew grows the
// round-robin series should pull away from the load-aware ones (locality
// degrades to least-loaded here: initial placements see no resident
// outputs).
//
// The sweep keeps its own loop: a point is a RunStream of several jobs, not
// the one Run grid makes.
func PolicySweep(workers int, skews []int) Sweep {
	sw := Sweep{
		ID:     "PolicySweep",
		Title:  fmt.Sprintf("two 1-map jobs + one skew-map job on %d one-slot workers: makespan vs skew", workers),
		XLabel: "big job maps",
	}
	for _, policy := range []string{"round-robin", "least-loaded", "locality"} {
		ser := Series{Label: policy}
		for _, skew := range skews {
			ms, err := PolicyStreamMakespan([]int{1, 1, skew}, workers, policy)
			note := ""
			if err != nil {
				note = "FAILED"
			}
			ser.X = append(ser.X, float64(skew))
			ser.Y = append(ser.Y, ms)
			ser.Note = append(ser.Note, note)
		}
		sw.Series = append(sw.Series, ser)
	}
	return sw
}
