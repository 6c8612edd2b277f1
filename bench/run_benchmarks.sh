#!/usr/bin/env bash
# Run the in-process admission benchmarks and emit Google Benchmark JSON.
#
# Usage:
#   bench/run_benchmarks.sh [output.json] [extra benchmark args...]
#
# Builds (if needed) and runs bench_bb_throughput with
# --benchmark_format=json, then stamps the commit (context.git_sha) and the
# core count (context.num_cpus) into the JSON. The checked-in trajectory
# lives in BENCH_bb_throughput.json at the repo root. To refresh it on a
# quiet machine:
#   bench/run_benchmarks.sh /tmp/after.json --benchmark_min_time=0.2
# End-to-end numbers (qosbbd over sockets, journaled, federated) come from
# perfbench/run.py, not from this script.
#
# NOTE: this container's Google Benchmark parses --benchmark_min_time as a
# plain double (no "s" suffix).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-bench_results/bb_throughput.json}"
shift || true

cmake -B "$repo_root/build" -S "$repo_root" >/dev/null
cmake --build "$repo_root/build" --target bench_bb_throughput -j >/dev/null

mkdir -p "$(dirname "$out")"
"$repo_root/build/bench/bench_bb_throughput" \
  --benchmark_format=json \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  "$@"

git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$out" "$git_sha" <<'PY'
import json
import os
import sys

path, sha = sys.argv[1:3]
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
ctx = report.setdefault("context", {})
ctx["git_sha"] = sha
ctx.setdefault("num_cpus", os.cpu_count() or 1)
with open(path, "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
PY

echo "wrote $out (git_sha=$git_sha)" >&2
