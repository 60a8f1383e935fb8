#!/usr/bin/env bash
# bench.sh — run the perf-trajectory benchmarks and snapshot the raw
# `go test -bench` output as BENCH_<n>.json at the repo root.
#
#   scripts/bench.sh [n]
#
# n defaults to the next unused snapshot index. The snapshot covers the
# paper's headline figures (Fig4 WordCount barrier vs pipelined, Fig6
# representative points) and the wall-clock fast-path microbenchmarks
# this repo gates perf PRs on: the batched pipelined shuffle
# (internal/mr), the zero-alloc k-way merger (internal/sortx), and the
# shuffle-transport comparison (in-proc vs spill-run exchange vs TCP).
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:-}"
if [[ -z "$n" ]]; then
  n=1
  while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
fi
out="BENCH_${n}.json"

run_bench() { # run_bench <pkg> <pattern> <benchtime>
  local raw
  if ! raw="$(go test -run 'XXX' -bench "$2" -benchtime "$3" -benchmem "$1" 2>&1)"; then
    echo "bench.sh: benchmark run failed for $1 ($2):" >&2
    printf '%s\n' "$raw" >&2
    exit 1
  fi
  printf '%s\n' "$raw" | grep -E '^(Benchmark|PASS|ok)' || true
}

tmp="$(mktemp)"
{
  echo "== figures (simulated cluster, vsec/job) =="
  run_bench . 'Fig4WordCount3GB|Fig6Sort8GB|Fig6WordCount8GB' 1x
  echo "== wall-clock fast paths (real-concurrency engine) =="
  run_bench ./internal/mr/ 'PipelinedWordCount1M_(Batch1$|Batch256$|Batch256Combiner)|PipelinedSort1M_Batch(1|256)$' 3x
  echo "== merge kernel =="
  run_bench ./internal/sortx/ 'MergerNext|MergerDrain|ByKey' 2s
  echo "== external shuffle (disk-spilling, bounded memory) =="
  run_bench ./internal/mr/ 'Sort1M_Spill' 1x
  echo "== shuffle transports (in-proc vs run exchange vs loopback TCP; TCP rides the pooled BLR2 fetch plane) =="
  run_bench ./internal/mr/ 'WordCount250K_(InProc$|Runx$|TCP$)' 2x
  echo "== fetch-plane raw floor (cached-handle buffered serve vs zero-copy sendfile; compressed TCP exchange at decode-workers 1 vs default pool) =="
  run_bench ./internal/shuffle/ 'SectionServe' 2s
  run_bench ./internal/mr/ 'WordCount250K_TCPDeltaDecode' 2x
  echo "== spill-run compression (none vs block vs delta; spill-ratio = raw/sealed bytes) =="
  run_bench ./internal/mr/ 'Spill1M_Comp(None|Block|Delta)' 1x
  echo "== cross-wave overlap (multi-process engine: staged vs overlapped dispatch, barrier vs pipelined) =="
  run_bench ./internal/mpexec/ 'Cluster(WordCount|Sort)' 2x
  echo "== worker-churn recovery (3-worker cluster, one SIGKILLed mid-job vs undisturbed; plus the sim-predicted overhead the parity test pins to) =="
  run_bench ./internal/mpexec/ 'ClusterRecovery' 1x
  run_bench . 'FaultPredicted' 1x
  echo "== multi-tenant job service (heterogeneous 3-job stream on one 3-worker pool: sequential admission vs concurrent under each placement policy) =="
  run_bench ./internal/mpexec/ 'ServiceStream' 2x
  echo "== coordinator crash-restart (durable journal: resume with sealed-run re-attach vs cold re-execution of the same job) =="
  run_bench ./internal/mpexec/ 'CoordRestart' 3x
} | tee "$tmp"

# Emit a JSON snapshot: one {name, value, unit} triple per reported
# metric line, parsed from the standard benchmark output format.
awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
  name = $1
  for (i = 3; i < NF; i += 2) {
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\"}", name, $i, $(i + 1)
  }
}
END { print "\n]" }
' "$tmp" >"$out"
rm -f "$tmp"
echo "wrote $out"
