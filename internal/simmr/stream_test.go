package simmr

import (
	"testing"

	"blmr/internal/apps"
	"blmr/internal/workload"
)

// streamConfig is the policy testbed: a three-node pool with one map slot
// each, so placement decides makespan.
func streamConfig() Config {
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 3
	cfg.Cluster.MapSlots = 1
	cfg.Cluster.ReduceSlots = 2
	cfg.Cluster.SpeedSpread = 0
	cfg.Replication = 2
	return cfg
}

// skewedStream is the canonical skewed workload: two one-map jobs plus one
// four-map job, all arriving together on the three-node pool. Round-robin
// (each job's cursor from zero) piles every first map on node 0; a loaded-
// aware policy spreads them.
func skewedStream(e *Engine) []StreamJob {
	mk := func(name string, chunks int, seed uint64) StreamJob {
		app := apps.WordCount()
		spec := jobFor(app, Barrier, 2)
		spec.Name = name
		spec.Workers = 3
		// Make map CPU the dominant cost, so the one-slot nodes serialize
		// co-located maps and placement decides the makespan.
		spec.Costs = DefaultCosts()
		spec.Costs.MapCPUPerRecord = 1e-3
		input := e.Ingest(name, workload.SplitEvenly(workload.Text(seed, 600*chunks, 120, 8), chunks))
		return StreamJob{Spec: spec, Input: input}
	}
	return []StreamJob{
		mk("small-a", 1, 51),
		mk("small-b", 1, 52),
		mk("big", 4, 53),
	}
}

func runSkewed(t *testing.T, policy string) *StreamResult {
	t.Helper()
	e := NewEngine(streamConfig())
	sr, err := e.RunStream(skewedStream(e), policy)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sr.Jobs {
		if r == nil || r.Failed {
			t.Fatalf("%s: stream job %d failed: %+v", policy, i, r)
		}
	}
	return sr
}

// TestStreamJobsComplete: every job in a concurrent stream completes with
// output under every policy, and outputs are policy-independent (placement
// moves work, never changes results).
func TestStreamJobsComplete(t *testing.T) {
	var ref *StreamResult
	for _, policy := range []string{"", "round-robin", "least-loaded", "locality"} {
		sr := runSkewed(t, policy)
		if ref == nil {
			ref = sr
			continue
		}
		for i := range sr.Jobs {
			requireSameOutput(t, policy, sr.Jobs[i].Output, ref.Jobs[i].Output)
		}
	}
}

// TestStreamLeastLoadedBeatsRoundRobin: on the skewed workload the
// load-blind round-robin stripe serializes four maps on node 0 while
// least-loaded spreads them — the makespan gap policy tuning exists to
// find. This prediction is pinned against the real engine in
// internal/mpexec's policy parity test.
func TestStreamLeastLoadedBeatsRoundRobin(t *testing.T) {
	rr := runSkewed(t, "round-robin")
	ll := runSkewed(t, "least-loaded")
	if ll.Makespan >= rr.Makespan {
		t.Fatalf("least-loaded makespan %.3f not under round-robin %.3f on skewed stream",
			ll.Makespan, rr.Makespan)
	}
	t.Logf("makespan: round-robin %.3f, least-loaded %.3f (ratio %.2f)",
		rr.Makespan, ll.Makespan, ll.Makespan/rr.Makespan)
}

// TestStreamUnknownPolicy: a bad policy name fails fast, before any job.
func TestStreamUnknownPolicy(t *testing.T) {
	e := NewEngine(streamConfig())
	if _, err := e.RunStream(skewedStream(e), "bogus"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestStreamFinishedMapsFreeTheirNodes: job B arrives after job A's maps
// have finished but while A's reduces still run. A's maps hold no pool slot
// any more, so least-loaded places B's two maps on the two fast nodes A's
// maps used and B finishes as fast as A did. At 10d0cc9 the stream's ledger
// kept A's finished maps against their nodes until A completed, which
// steered B's first map onto the idle — and here four times slower — node 2.
func TestStreamFinishedMapsFreeTheirNodes(t *testing.T) {
	stream := func(e *Engine, arrival float64) []StreamJob {
		e.C.Nodes[2].Speed = 0.25
		mk := func(name string, seed uint64, at float64) StreamJob {
			spec := jobFor(apps.WordCount(), Barrier, 2)
			spec.Name, spec.Workers = name, 3
			spec.Costs = DefaultCosts()
			spec.Costs.MapCPUPerRecord = 1e-3    // maps decide the makespan,
			spec.Costs.ReduceCPUPerRecord = 2e-3 // and A's reduces outlast them
			input := e.Ingest(name, workload.SplitEvenly(workload.Text(seed, 1200, 120, 8), 2))
			return StreamJob{Spec: spec, Input: input, Arrival: at}
		}
		jobs := []StreamJob{mk("a", 71, 0)}
		if arrival > 0 {
			jobs = append(jobs, mk("b", 72, arrival))
		}
		return jobs
	}
	run := func(arrival float64) []*Result {
		e := NewEngine(streamConfig())
		sr, err := e.RunStream(stream(e, arrival), "least-loaded")
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sr.Jobs {
			if r == nil || r.Failed {
				t.Fatalf("stream job %d failed: %+v", i, r)
			}
		}
		return sr.Jobs
	}
	alone := run(0)[0]
	arrival := (alone.MapOutputsReady + alone.Completion) / 2
	if arrival <= alone.MapOutputsReady || arrival >= alone.Completion {
		t.Fatalf("no reduce tail to arrive in: maps ready %.3f, done %.3f", alone.MapOutputsReady, alone.Completion)
	}
	jobs := run(arrival)
	a, b := jobs[0], jobs[1]
	bMaps, aMaps := b.MapOutputsReady-arrival, a.MapOutputsReady
	t.Logf("A: maps ready %.3f, done %.3f; B arrives %.3f: maps took %.3f, done %.3f", aMaps, a.Completion, arrival, bMaps, b.Completion)
	if bMaps > 1.5*aMaps {
		t.Fatalf("B's map wave took %.3fs against A's %.3fs: a map was steered off A's idle nodes onto the slow one", bMaps, aMaps)
	}
}
