"""The benchmark's own self-test runs against this source tree, so a change
that breaks a name the benchmark calls or patches fails here first."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", ["mc-long-frame", "analytic-strong-attacker", "auth-episodes"])
def test_traced_op_passes(name, tmp_path, monkeypatch):
    # a traced op (run.py --trace 1) patches names that untraced ops never
    # touch, such as special.marcum_q1; a name lost from the package fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from ops import AuthOps, CliOps, import_package
    from tracing import Tracer
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS[name]
    if w.kind == "roc":
        w = replace(w, trials=2 * 16384)
    ops_class = AuthOps if w.kind == "auth" else CliOps
    ops = ops_class(import_package(ROOT / "src"), w, write_inputs(w, 0, tmp_path), tmp_path)
    ops.run(1, Tracer())
    assert ops.failed == 0, ops.problems
