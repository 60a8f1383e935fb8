package main

// The metric vocabulary. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (TestBenchmarkJSONMatches keeps
// the two in step); later performance issues refer to these names.

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

type metricDef struct {
	name, unit string
	// higher reports whether a larger value is better.
	higher bool
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which carry no bound).
	bound float64
}

// workloadNames are the four workloads, in run order.
var workloadNames = []string{"wc_inproc", "sort_tcp_delta", "cluster_wc", "service_stream"}

// endToEnd metrics are measured with tracing off and reported by every
// workload (the driver's contract), so each is defined on all four.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "job_wall_s", unit: "s", bound: 0.25},
	{name: "records_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "submit_p50_ms", unit: "ms", bound: 0.25},
}

// boundOf returns an end-to-end metric's regression bound.
func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// perLayer metrics come from the traced run; a workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{name: "exec.map_self_s", unit: "s"},
	{name: "exec.reduce_self_s", unit: "s"},
	{name: "exec.map_wall_s", unit: "s"},
	{name: "exec.reduce_tail_s", unit: "s"},
	{name: "exec.unattributed_frac", unit: "frac"},
	{name: "shuffle.send_wait_s", unit: "s"},
	{name: "shuffle.seal_s", unit: "s"},
	{name: "shuffle.source_wait_s", unit: "s"},
	{name: "shuffle.run_read_s", unit: "s"},
	{name: "shuffle.records", unit: "count"},
	{name: "shuffle.waves", unit: "count"},
	{name: "shuffle.raw_bytes", unit: "bytes"},
	{name: "shuffle.sealed_bytes", unit: "bytes"},
	{name: "shuffle.fetch_bytes", unit: "bytes"},
	{name: "shuffle.fetch_dials", unit: "count"},
	{name: "shuffle.server_opens", unit: "count"},
	{name: "sortx.merge_passes", unit: "count"},
	{name: "store.peak_partial_bytes", unit: "bytes"},
	{name: "sortx.bykey_ns_per_rec", unit: "ns"},
	{name: "sortx.merge_ns_per_rec", unit: "ns"},
	{name: "codec.encode_ns_per_rec", unit: "ns"},
	{name: "codec.decode_ns_per_rec", unit: "ns"},
	{name: "codec.ratio", unit: "x", higher: true},
	{name: "shuffle.seal_mb_per_s", unit: "MB/s", higher: true},
	{name: "shuffle.fetch_mb_per_s", unit: "MB/s", higher: true},
	{name: "mpexec.barrierless_speedup", unit: "x", higher: true},
	{name: "mpexec.overlap_speedup", unit: "x", higher: true},
	{name: "mpexec.classic_wall_s", unit: "s"},
	{name: "mpexec.pipe_staged_wall_s", unit: "s"},
	{name: "mpexec.map_wall_s", unit: "s"},
	{name: "mpexec.reduce_tail_s", unit: "s"},
	{name: "mpexec.fetch_bytes", unit: "bytes"},
	{name: "mpexec.fetch_dials", unit: "count"},
	{name: "mpexec.server_opens", unit: "count"},
	{name: "mpexec.retries", unit: "count"},
	{name: "mpexec.submit_p95_ms", unit: "ms"},
	{name: "mpexec.empty_job_ms", unit: "ms"},
	{name: "mpexec.admit_overhead_ms", unit: "ms"},
	{name: "mpexec.stream_makespan_s", unit: "s"},
	{name: "mpexec.refused", unit: "count"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.append_mb_per_s", unit: "MB/s", higher: true},
	{name: "wal.journal_peak_bytes", unit: "bytes"},
	{name: "proc.cpu_s_per_job", unit: "s"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.allocs_per_job", unit: "count"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "trace.composed_wall_frac", unit: "frac"},
}

// exactCounts are the per-layer counts that must repeat bit-for-bit for a
// fixed seed on the in-process workloads (-selfcheck enforces it).
var exactCounts = []string{
	"shuffle.records", "shuffle.waves", "shuffle.raw_bytes", "shuffle.sealed_bytes",
	"shuffle.fetch_bytes", "sortx.merge_passes", "codec.ratio",
}

// metricValue is one reported number; n is the sample count behind a median
// (0 for single measurements and counts).
type metricValue struct {
	value float64
	n     int
}

// report is what one run of one workload produced.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	// correct is false when any job (timed, warm-up or traced) failed or
	// produced output different from its reference.
	correct bool
	metrics map[string]metricValue
	// notes are printed for people under the report's heading.
	notes []string
}

func (r *report) set(name string, v float64, n int) { r.metrics[name] = metricValue{v, n} }

// defs returns the metric list this report must cover.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}
