#!/usr/bin/env python3
"""qosbb_lint — project-invariant static analysis for the qosbb tree.

Enforces three invariants the compilers cannot express end to end:

  lock-order      broker lock hierarchy (big_ -> flow_mu_ -> leaves) across
                  call chains, on every row including gcc where clang's
                  thread-safety analysis is inert
  hotpath-alloc   no heap allocation on the admission hot path
  status-discard  no silently dropped Status/Result values
  changes-tags    every CHANGES.md PR ledger line carries its archetype
                  tag ('- PR N (archetype): ...')

One frontend, a built-in tokenizer with no toolchain dependency
(internal_frontend.py), lowers C++ to the event-stream IR of lint_ir.py;
the checks replay that IR.

Exit codes: 0 clean, 1 findings, 2 infrastructure error.
"""

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import internal_frontend  # noqa: E402
from lint_ir import Program  # noqa: E402


def load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    return {k: v for k, v in cfg.items() if not k.startswith("_")}


def project_files(root, config, explicit):
    if explicit:
        return [os.path.relpath(os.path.abspath(p), root) for p in explicit]
    rels = []
    for pattern in config.get("paths", []):
        for p in glob.glob(os.path.join(root, pattern), recursive=True):
            rels.append(os.path.relpath(p, root))
    skip = config.get("exclude", [])
    rels = [r for r in rels
            if not any(r.startswith(e) for e in skip)]
    return sorted(set(rels))


def run_internal(root, files, config):
    functions, decls = [], []
    for rel in files:
        fns, ds = internal_frontend.parse_file(
            os.path.join(root, rel), rel, config)
        functions.extend(fns)
        decls.extend(ds)
    return functions, decls


def main(argv=None):
    ap = argparse.ArgumentParser(prog="qosbb_lint", description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--config", default=None,
                    help="config JSON (default: <script dir>/config.json)")
    ap.add_argument("--checks", default="lock-order,hotpath-alloc,"
                                        "status-discard,changes-tags",
                    help="comma-separated subset of checks to run")
    ap.add_argument("files", nargs="*",
                    help="restrict to these files (default: config globs)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    cfg_path = args.config or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "config.json")
    try:
        config = load_config(cfg_path)
    except (OSError, json.JSONDecodeError) as e:
        print(f"qosbb_lint: cannot load config {cfg_path}: {e}",
              file=sys.stderr)
        return 2
    config["root"] = root  # for checks that read repo-root files

    enabled = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in enabled if c not in checks.CHECKS]
    if unknown:
        print(f"qosbb_lint: unknown checks: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    files = project_files(root, config, args.files)
    if not files:
        print("qosbb_lint: no source files matched", file=sys.stderr)
        return 2

    functions, decls = run_internal(root, files, config)

    program = Program(functions)
    findings = checks.run_checks(program, decls, config, enabled)
    for f in findings:
        print(f.render())
    summary = (f"qosbb_lint: {len(files)} files, "
               f"{len(functions)} functions, {len(findings)} finding(s) "
               f"[{','.join(enabled)}]")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
