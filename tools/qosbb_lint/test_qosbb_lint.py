#!/usr/bin/env python3
"""Canary tests for qosbb_lint, run under ctest.

For each check we run the driver over a CLEAN fixture (must exit 0 with
no findings) and a SABOTAGED fixture (must exit 1 and report the expected
findings — the inverted-exit canary that proves the check can actually
fire, the same discipline as `fuzz_broker --sabotage`).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
DRIVER = os.path.join(HERE, "qosbb_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
FIXTURE_CONFIG = os.path.join(FIXTURES, "config.json")

# check -> (clean fixture, sabotaged fixture, substrings that must appear
# in the sabotage findings, minimum sabotage finding count)
MATRIX = {
    "lock-order": (
        "lockorder_clean.cc", "lockorder_sabotaged.cc",
        ["re-acquired", "leaf", "inversion", "fed_mu_"], 4),
    "hotpath-alloc": (
        "hotpath_clean.cc", "hotpath_sabotaged.cc",
        ["make_unique", "to_string", "push_back", "vector"], 4),
    "status-discard": (
        "status_clean.cc", "status_sabotaged.cc",
        ["silently discarded", "waiver"], 2),
}

failures = []


def run_driver(check, fixture):
    cmd = [sys.executable, DRIVER, "--root", ROOT,
           "--config", FIXTURE_CONFIG,
           "--checks", check, os.path.join(FIXTURES, fixture)]
    return subprocess.run(cmd, capture_output=True, text=True)


def check_pair(check):
    clean, sabotaged, needles, min_findings = MATRIX[check]

    proc = run_driver(check, clean)
    if proc.returncode != 0:
        failures.append(
            f"{check}: clean fixture {clean} not clean "
            f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")

    proc = run_driver(check, sabotaged)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 1:
        failures.append(
            f"{check}: sabotaged fixture {sabotaged} must "
            f"exit 1, got {proc.returncode}:\n{proc.stdout}{proc.stderr}")
        return
    if len(lines) < min_findings:
        failures.append(
            f"{check}: expected >= {min_findings} findings "
            f"in {sabotaged}, got {len(lines)}:\n{proc.stdout}")
    for needle in needles:
        if needle not in proc.stdout:
            failures.append(
                f"{check}: sabotage output missing "
                f"'{needle}':\n{proc.stdout}")


def check_changes_pair():
    """changes-tags operates on a markdown ledger, not a C++ TU: point the
    config's changes_file at a clean / sabotaged fixture ledger (a clean
    source TU is still passed so the driver has something to parse)."""
    with open(FIXTURE_CONFIG, "r", encoding="utf-8") as f:
        base_cfg = json.load(f)
    cases = (("changes_clean.md", True), ("changes_sabotaged.md", False))
    for fixture, expect_clean in cases:
        cfg = dict(base_cfg)
        cfg["changes_file"] = os.path.join(
            "tools", "qosbb_lint", "fixtures", fixture)
        fd, tmpcfg = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(cfg, f)
            cmd = [sys.executable, DRIVER, "--root", ROOT,
                   "--config", tmpcfg, "--checks", "changes-tags",
                   os.path.join(FIXTURES, "lockorder_clean.cc")]
            proc = subprocess.run(cmd, capture_output=True, text=True)
        finally:
            os.unlink(tmpcfg)
        if expect_clean:
            if proc.returncode != 0:
                failures.append(
                    f"changes-tags: clean ledger {fixture} "
                    f"not clean (exit {proc.returncode}):"
                    f"\n{proc.stdout}{proc.stderr}")
        else:
            lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
            if proc.returncode != 1 or len(lines) < 2:
                failures.append(
                    f"changes-tags: sabotaged ledger "
                    f"{fixture} must exit 1 with >= 2 findings, got exit "
                    f"{proc.returncode} / {len(lines)} finding(s):"
                    f"\n{proc.stdout}{proc.stderr}")
            elif "archetype tag" not in proc.stdout:
                failures.append(
                    f"changes-tags: sabotage output missing "
                    f"'archetype tag':\n{proc.stdout}")


def main():
    for check in MATRIX:
        check_pair(check)
    check_changes_pair()

    if failures:
        print(f"{len(failures)} fixture expectation(s) FAILED:",
              file=sys.stderr)
        for f in failures:
            print("  - " + f.replace("\n", "\n    "), file=sys.stderr)
        return 1
    print(f"qosbb_lint fixtures OK ({len(MATRIX)} checks + changes-tags "
          f"x clean+sabotage)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
