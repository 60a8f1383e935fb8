package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as a cluster worker, exactly as the
// bench binary does: mpexec.SpawnLocal re-executes whatever is running.
func TestMain(m *testing.M) {
	if runWorker(os.Args[1:]) {
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, untraced and traced, at 1/50 size with two
// jobs each: the harness compiles, spawns workers, verifies outputs, reports
// every declared metric and writes a loadable trace, in a few seconds.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s\nstdout:\n%s", code, &stderr, &stdout)
	}
	type result struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	var reports []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line is not JSON: %v\n%s", err, line)
		}
		reports = append(reports, r)
	}
	if want := 2 * len(workloadNames); len(reports) != want {
		t.Fatalf("%d result lines, want %d (each workload untraced and traced)", len(reports), want)
	}
	for i, r := range reports {
		workload, defs := workloadNames[i/2], endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if !r.Correct || r.Attempted < 2 || r.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics reported, %d declared", workload, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", workload, d.name, m.Unit, d.unit)
			}
			if i%2 == 0 && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.name, m.Value)
			}
		}
	}

	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	b, err := os.ReadFile(filepath.Join(buildDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		seen[e.Name] = true
	}
	for _, name := range []string{"job", spanMap, spanReduce, spanSend, spanNextBatch, spanPublish, spanRuns, "submit", "wait", "verify", "run"} {
		if !seen[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
	if entries, _ := os.ReadDir(buildDir); len(entries) != 1 {
		t.Errorf("%s holds %d entries after the run, want only the trace", buildDir, len(entries))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the driver's contract, in
// step with the metric tables compiled into the benchmark.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
