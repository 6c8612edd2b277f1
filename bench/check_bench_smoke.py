#!/usr/bin/env python3
"""CI gate for the benchmark smoke run (bench/run_benchmarks.sh output).

Fails (exit 1) when the Google Benchmark JSON is missing a family of
REQUIRED_PREFIXES, or when any reported row errored or ran zero
iterations — the signatures of a silently broken bench binary that a
plain exit-code check would miss. Two semantic gates ride along:

  * scaling: on machines with >= 4 detected cores (context.num_cpus), the
    BM_ConcurrentAdmit 4-thread row must aggregate >= 2x the 1-thread
    items_per_second — the disjoint-path scaling claim of the concurrent
    front. On smaller machines (CI runners often expose 1-2 cores) the
    gate is reported as skipped, not passed: flat scaling there is
    expected, not fine.
  * group commit: every BM_JournalGroupCommit row must report
    appends_per_batch == 1 (K admits, one journal append).

Usage: check_bench_smoke.py bench_smoke.json
"""

import json
import sys

# Benchmark families that must appear in every smoke run (a row whose name
# starts with one of these prefixes counts).
REQUIRED_PREFIXES = [
    "BM_PerFlowAdmitRelease",
    "BM_ConcurrentAdmit",
    "BM_BatchAdmit",
    "BM_ClassJoinLeave",
    "BM_PolicyCheckOnly",
    "BM_PathViewOnly",
    "BM_JournalAppend",
    "BM_JournalGroupCommit",
    "BM_JournalReplay",
]

# Required aggregate speedup of BM_ConcurrentAdmit at SCALING_CORES threads
# over 1 thread, asserted only when the machine has the cores to show it.
SCALING_MIN = 2.0
SCALING_CORES = 4


def scaling_gate(num_cpus, rows):
    """Failure messages of the concurrent-scaling gate."""
    if num_cpus < SCALING_CORES:
        print(f"SKIP: BM_ConcurrentAdmit scaling (num_cpus={num_cpus} < "
              f"{SCALING_CORES})")
        return []

    def rate(threads):
        return next((r.get("items_per_second") for r in rows
                     if r["name"].startswith("BM_ConcurrentAdmit")
                     and f"threads:{threads}" in r["name"]), None)

    base, scaled = rate(1), rate(SCALING_CORES)
    if not base or not scaled:
        return ["BM_ConcurrentAdmit rows for the scaling gate missing"]
    speedup = scaled / base
    if speedup < SCALING_MIN:
        return [f"BM_ConcurrentAdmit {SCALING_CORES}-thread speedup "
                f"{speedup:.2f}x < {SCALING_MIN}x (num_cpus={num_cpus})"]
    print(f"OK: BM_ConcurrentAdmit scales {speedup:.2f}x at "
          f"{SCALING_CORES} threads (num_cpus={num_cpus})")
    return []


def group_commit_gate(rows):
    """Failure messages of the one-append-per-batch gate."""
    return [f"{r['name']}: appends_per_batch={r.get('appends_per_batch')} "
            "(expected 1)"
            for r in rows if r["name"].startswith("BM_JournalGroupCommit")
            and abs(r.get("appends_per_batch", 0.0) - 1.0) > 1e-9]


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} bench_smoke.json", file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read benchmark JSON: {exc}", file=sys.stderr)
        return 1

    rows = [dict(b, name=b.get("name", "?"))
            for b in report.get("benchmarks", [])
            if b.get("run_type") != "aggregate"]
    failures = [f"required benchmark missing: {p}" for p in REQUIRED_PREFIXES
                if not any(r["name"].startswith(p) for r in rows)]
    for r in rows:
        if r.get("error_occurred"):
            failures.append(f"{r['name']}: {r.get('error_message', 'error')}")
        elif int(r.get("iterations", 0)) <= 0:
            failures.append(f"{r['name']}: zero iterations")
    num_cpus = int(report.get("context", {}).get("num_cpus", 0))
    failures += scaling_gate(num_cpus, rows)
    failures += group_commit_gate(rows)

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {len(rows)} benchmarks, all required present, "
          "all with iterations > 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
