"""Self-test of the benchmark's output checks: real ops pass them, and a
corrupted output (a perturbed pd, a flipped verdict, a biased detector) is
counted as a failure.

Usage: python3 perfbench/selftest.py     (exit 0 when every case holds)
"""

from __future__ import annotations

import os
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from ops import AuthOps, CliOps, import_package
from tracing import patched
from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent


def perturb(csv_text: str, row: int, change) -> str:
    """The CSV with the pd field of data row `row` replaced by change(pd)."""
    lines = csv_text.split("\n")
    fields = lines[row + 1].split(",")
    fields[1] = f"{change(float(fields[1])):.17g}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def failures(ops: CliOps, k: int, texts: tuple[str, ...]) -> int:
    ops.outputs, ops.failed = {(k, texts): 1}, 0
    ops.check_outputs()
    return ops.failed


def main() -> int:
    pkg = import_package(ROOT / "src")
    work = ROOT / ".bench_build" / "perfbench" / f"selftest-{os.getpid()}"
    cases: list[tuple[str, bool]] = []
    try:
        roc_w = replace(WORKLOADS["mc-long-frame"], trials=2 * 16384)
        sweep_w = WORKLOADS["analytic-strong-attacker"]
        auth_w = WORKLOADS["auth-episodes"]
        roc = CliOps(pkg, roc_w, write_inputs(roc_w, 0, work / "roc"), work / "roc")
        sweep = CliOps(pkg, sweep_w, write_inputs(sweep_w, 0, work / "sweep"), work / "sweep")
        auth = AuthOps(pkg, auth_w, write_inputs(auth_w, 0, work / "auth"), work / "auth")
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            roc.run(0)
            sweep.run(0)
        for i in range(4):
            auth.run(i)
        [(k, (analytic, empirical))] = roc.outputs
        [(ks, curves)] = sweep.outputs
        roc.check_outputs()
        sweep.check_outputs()
        auth.check_outputs()
        cases += [
            ("a real roc op passes", roc.failed == 0),
            ("a real sweep op passes", sweep.failed == 0),
            ("real auth episodes pass", auth.failed == 0 and not auth.run_problems),
            ("analytic pd x (1 + 1e-6) fails",
             failures(roc, k, (perturb(analytic, 10, lambda pd: pd * (1 + 1e-6)), empirical)) == 1),
            ("empirical pd - 0.05 fails",
             failures(roc, k, (analytic, perturb(empirical, 25, lambda pd: pd - 0.05))) == 1),
            ("sweep pd x (1 - 1e-6) on one curve fails",
             failures(sweep, ks, curves[:3] + (perturb(curves[3], 40, lambda pd: pd * (1 - 1e-6)),)
                      + curves[4:]) == 1),
        ]

        def flipped(*args):
            estimate, decision = run_trial(*args)
            return estimate, replace(decision, accepted=not decision.accepted)

        run_trial = pkg.experiments.run_trial
        before = auth.failed
        with patched([(pkg.experiments, "run_trial", flipped)]):
            auth.run(0)
        cases.append(("a flipped verdict fails", auth.failed == before + 1))
        cases.append(("a legitimate accept rate of 0.95 fails the run",
                      bool(checks.auth_run_problems(9500, 10000, 0.01, np.array([]), 0, 0.1))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
