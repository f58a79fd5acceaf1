#!/usr/bin/env python3
"""ctest driver for the zkphire-lint fixture suite.

Asserts that each seeded fixture in tests/lint_fixtures/ is flagged with
its expected rule id, that the clean fixture produces zero findings, and
that the production tree (src/) stays lint-clean — the ratchet that keeps
new secret-dependent branches, lock inversions, unindexed parallel writes,
and transcript nondeterminism out of the codebase.

Runs the lexer front-end explicitly so the assertions are independent of
whether libclang happens to be installed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
LINT = os.path.join(ROOT, "tools", "lint", "zkphire_lint.py")

# fixture basename -> (rule id, minimum findings, exact?)
EXPECT = {
    "ct_branch_violation.cpp": ("ct-kernel", 3, True),
    "ct_lane_branch_violation.cpp": ("ct-kernel", 1, True),
    "lock_order_violation.cpp": ("lock-order", 1, True),
    "parallel_capture_violation.cpp": ("parallel-capture", 1, True),
    "transcript_unordered_violation.cpp": ("transcript-determinism", 2, True),
    "clean.cpp": (None, 0, True),
}


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, LINT, "--engine=lexer", "--json"] + args,
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"zkphire_lint.py crashed (exit {proc.returncode})")
    return json.loads(proc.stdout), proc.returncode


def main():
    failures = []

    findings, rc = run_lint(["tests/lint_fixtures"])
    if rc != 1:
        failures.append("fixture run should exit 1 (seeded violations)")
    by_file = {}
    for f in findings:
        by_file.setdefault(os.path.basename(f["path"]), []).append(f)

    for name, (rule, count, exact) in EXPECT.items():
        got = by_file.get(name, [])
        rules = sorted({f["rule"] for f in got})
        if rule is None:
            if got:
                failures.append(f"{name}: expected clean, got {rules}")
            continue
        hits = [f for f in got if f["rule"] == rule]
        if len(hits) < count or (exact and len(hits) != count):
            failures.append(
                f"{name}: expected {'exactly' if exact else '>='} {count} "
                f"[{rule}] finding(s), got {len(hits)} (all rules: {rules})")
        strays = [f for f in got if f["rule"] != rule]
        if strays:
            failures.append(
                f"{name}: unexpected extra rules "
                f"{sorted({f['rule'] for f in strays})}")

    # The production tree must stay clean: this is the regression lock for
    # the PR-8 annotation/fix sweep.
    src_findings, rc = run_lint(["-p", "build", "src"])
    if rc != 0 or src_findings:
        for f in src_findings[:20]:
            print(f"  {f['path']}:{f['line']}: [{f['rule']}] {f['message']}")
        failures.append(
            f"src/ must be lint-clean, got {len(src_findings)} finding(s)")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"lint fixtures OK: {len(EXPECT)} fixtures, "
          f"{sum(len(v) for v in by_file.values())} seeded findings matched, "
          f"src clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
