"""The A/B tool's per-metric verdict, on synthetic pairs (no benchmark run)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

TIGHT = [10.0 + 0.01 * i for i in range(10)]  # IQR 0.045, far below 0.25 x median
WIDE = [10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 30.0, 30.0, 30.0]  # IQR 17.5 > 0.25 x 20


def _pairs(parent, change):
    return [{"parent": {"op_p90_ms": p, "op_p50_ms": p, "failed": 0, "attempted": 5},
             "change": {"op_p90_ms": c, "op_p50_ms": c, "failed": 0, "attempted": 5}}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent,change,expected", [
    # lower in every pair, by far more than the parent's IQR
    (TIGHT, [p - 1.0 for p in TIGHT], "better"),
    # lower in 9 of 10 pairs is enough; 8 of 10 is not
    (TIGHT, [p - 1.0 for p in TIGHT[:9]] + [TIGHT[9] + 1.0], "better"),
    (TIGHT, [p - 1.0 for p in TIGHT[:8]] + [p + 0.001 for p in TIGHT[8:]], "unchanged"),
    # lower in every pair but by less than the parent's IQR
    (TIGHT, [p - 0.01 for p in TIGHT], "unchanged"),
    # ties count for neither side
    (TIGHT, TIGHT, "unchanged"),
    # the parent's own spread is wider than the bound
    (WIDE, [w + 1.0 for w in WIDE], "unresolved"),
    (WIDE, [w - 1.0 for w in WIDE], "unresolved"),
    # ... unless every change run is lower than every parent run
    (WIDE, [9.5] * 10, "unchanged"),
    # better is checked before unresolved
    (WIDE, [1.0] * 10, "better"),
    # more than 25% above the parent's median, and just inside it
    (TIGHT, [13.0] * 10, "worse"),
    (TIGHT, [12.5] * 10, "unchanged"),
])
def test_verdict(parent, change, expected):
    assert bench_pairs.verdict(parent, change, 0.25) == expected


def test_summary_gives_a_verdict_to_gated_metrics_only():
    summary = bench_pairs.summarize(_pairs(TIGHT, [13.0] * 10), ["op_p90_ms", "op_p50_ms"],
                                    {"op_p90_ms": 0.25})
    assert summary["op_p90_ms"]["verdict"] == "worse"
    assert summary["op_p90_ms"]["change_lower_in_pairs"] == 0
    assert "verdict" not in summary["op_p50_ms"]
    assert summary["failed"] == {"parent": 0, "change": 0,
                                 "attempted_parent": 50, "attempted_change": 50}
