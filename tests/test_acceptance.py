"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
Monte Carlo budgets are 1e5 trials per operating point with pinned seeds;
analytic-vs-empirical tolerances are 4 binomial standard errors.  Criteria
1-5 and 10 run the same checks as `backscatter-auth validate`, at these
budgets.
"""

import math

import numpy as np

from backscatter_auth.cli import EXIT_OK, main
from backscatter_auth.detection import analytic_pfa, design_threshold
from backscatter_auth.estimation import ls_estimate
from backscatter_auth.experiments import (
    SHARD_TRIALS,
    ExperimentConfig,
    canonical_scenario,
    empirical_rejection_counts,
    roc_analytic,
    roc_empirical,
    simulate_statistics,
    sweep_attacker,
)
from backscatter_auth.rng import RngHandle
from backscatter_auth.signaling import LinkNoiseParams, SignalFrame, exchange
from backscatter_auth.special import marcum_q1
from backscatter_auth.validation import (
    check_consolidation_equivalence,
    check_estimator_statistics,
    check_false_alarm_grid,
    check_kernel_variance_mutation,
    check_kernel_vs_frame_path,
    check_marcum_complement_vs_quadrature,
    check_marcum_vs_quadrature,
    check_missed_detection_grid,
    check_scale_convention_mutation,
)

TRIALS = 100_000
GRID_50 = tuple(float(p) for p in np.linspace(0.01, 0.99, 50))


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_false_alarm_closed_form():
    result = check_false_alarm_grid(trials=TRIALS, seed=11_001)
    _report(1, "false-alarm closed form", result.passed, result.line())


def test_criterion_2_missed_detection_closed_form():
    fit = check_missed_detection_grid(trials=TRIALS, seed=11_002)
    # the literal reading (half-variance used directly as the scale) must be
    # decisively rejected by the same data
    mutation = check_scale_convention_mutation(trials=TRIALS, seed=11_002)
    _report(2, "missed-detection closed form", fit.passed and mutation.passed,
            f"{fit.line()}; {mutation.line()}")


def test_criterion_3_marcum_oracle_equivalence():
    result = check_marcum_vs_quadrature(step=0.25)
    # the complement, in its own lower tail down to below 1e-200
    complement = check_marcum_complement_vs_quadrature()
    # the check holds the grid to 1e-10; the axis identities
    # Q1(0, b) = exp(-b^2/2) and Q1(a, 0) = 1 are held tighter here
    grid = np.arange(0.0, 10.0 + 0.125, 0.25)
    edge_worst = 0.0
    for b in grid[1:]:
        ref = math.exp(-0.5 * float(b) ** 2)
        edge_worst = max(edge_worst, abs(marcum_q1(0.0, float(b)) - ref) / ref)
    for a in grid:
        edge_worst = max(edge_worst, abs(marcum_q1(float(a), 0.0) - 1.0))
    _report(3, "Marcum Q1 oracle equivalence",
            result.passed and complement.passed and edge_worst <= 1e-12,
            f"{result.line()}; {complement.line()}; axis worst {edge_worst:.2e} (limit 1e-12)")


def test_criterion_4_ls_estimator_statistics():
    result = check_estimator_statistics(trials=TRIALS, seed=11_004)
    scenario = canonical_scenario(sinr_db=5.0, n_train=8, mu_mag=0.0)
    truth = scenario.legit_link.h_res
    noiseless = LinkNoiseParams(0.0, 0.0, 0.0)
    x = SignalFrame.all_ones(8)
    y = exchange(x, scenario.legit_link, scenario.tx, noiseless, RngHandle(0))
    exact = ls_estimate(x, y, scenario.tx, noiseless).value
    recovery_err = abs(exact - truth) / abs(truth)
    _report(4, "LS estimator statistics", result.passed and recovery_err <= 1e-12,
            f"{result.line()}; noiseless recovery {recovery_err:.1e} (limit 1e-12)")


def test_criterion_5_consolidation_equivalence():
    result = check_consolidation_equivalence(n=TRIALS, seed=11_005)
    _report(5, "consolidation equivalence", result.passed, result.detail)


def test_criterion_6_detection_improves_with_sinr():
    sinrs = (0.0, 5.0, 10.0, 15.0)
    analytic = {}
    empirical = {}
    for sinr_db in sinrs:
        cfg = ExperimentConfig(sinr_db=sinr_db, n_train=1, mu_mag=0.5,
                               pfa_grid=GRID_50, trials=TRIALS, seed=11_006)
        analytic[sinr_db] = roc_analytic(cfg).pd.tolist()
        empirical[sinr_db] = roc_empirical(cfg).pd.tolist()

    strict = all(
        hi > lo
        for lo_db, hi_db in zip(sinrs, sinrs[1:])
        for lo, hi in zip(analytic[lo_db], analytic[hi_db])
    )

    violations = 0
    comparisons = 0
    for lo_db, hi_db in zip(sinrs, sinrs[1:]):
        for pa_lo, pa_hi, pe_lo, pe_hi in zip(
                analytic[lo_db], analytic[hi_db], empirical[lo_db], empirical[hi_db]):
            se = math.sqrt((pa_lo * (1 - pa_lo) + pa_hi * (1 - pa_hi)) / TRIALS)
            if pa_hi - pa_lo > 4.0 * se:
                comparisons += 1
                violations += pe_hi <= pe_lo
    ok = strict and violations == 0
    _report(6, "detection improves with SINR", ok,
            f"analytic strictly ordered: {strict}; empirical violations "
            f"{violations}/{comparisons} separated points")


def test_criterion_7_detection_improves_with_fingerprint_distance():
    base = ExperimentConfig(sinr_db=5.0, n_train=1, mu_mag=1.0,
                            pfa_grid=GRID_50, trials=0, seed=11_007)
    curves = sweep_attacker(base, [0.5, 1.0, 2.0])
    strict = all(
        bool(np.all(stronger.pd > weaker.pd))
        for weaker, stronger in zip(curves, curves[1:])
    )
    chance = sweep_attacker(base, [0.0])[0]
    chance_err = float(np.max(np.abs(chance.pd - chance.pfa) / chance.pfa))
    ok = strict and chance_err <= 1e-12
    _report(7, "detection improves with fingerprint distance", ok,
            f"strict ordering: {strict}; chance-line error {chance_err:.1e} (limit 1e-12)")


def test_criterion_8_threshold_round_trip():
    worst = 0.0
    for p in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5):
        for v in (0.01, 0.1, 0.31622776601683794, 1.0, 3.0, 10.0):
            back = analytic_pfa(design_threshold(p, v), v)
            worst = max(worst, abs(back - p) / p)
    _report(8, "threshold round trip", worst <= 1e-12,
            f"worst rel err {worst:.2e} (limit 1e-12)")


def test_criterion_9_reproducibility(tmp_path):
    config_text = (
        "[experiment]\n"
        "sinr_db = 5.0\n"
        "n_train = 8\n"
        "mu_mag = 1.0\n"
        "pfa_grid = linspace:0.02:0.98:25\n"
        f"trials = {SHARD_TRIALS * 2 + 500}\n"
        "seed = 11009\n"
    )
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(config_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["roc", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
    assert main(["roc", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
    byte_identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("roc_analytic.csv", "roc_empirical.csv")
    )

    # the engine's counts are the sum of shards drawn one by one, each from
    # its own spawned stream; at this distance no threshold rejects every
    # trial, so a shard drawn from the wrong stream changes the counts
    cfg = ExperimentConfig(sinr_db=5.0, n_train=8, mu_mag=0.1,
                           pfa_grid=(0.05, 0.2, 0.5), trials=SHARD_TRIALS * 3 + 17,
                           seed=11_010)
    scenario = cfg.scenario
    thresholds = np.array([design_threshold(p, scenario.est_variance)
                           for p in cfg.pfa_grid])
    shard_sum = sum(
        size - np.searchsorted(np.sort(simulate_statistics(
            scenario, scenario.attack_link, size,
            RngHandle(cfg.seed).spawn(1).spawn(index))), thresholds, side="left")
        for index, size in enumerate([SHARD_TRIALS] * 3 + [17]))
    counts_merge = bool(np.array_equal(empirical_rejection_counts(cfg, "h1"), shard_sum))

    ok = byte_identical and counts_merge
    _report(9, "reproducibility", ok,
            f"CSV byte-identical: {byte_identical}; "
            f"sharded counts equal the sum of independent shards: {counts_merge}")


def test_criterion_10_kernel_matches_frame_path():
    fit = check_kernel_vs_frame_path(trials=TRIALS, seed=11_011)
    # a kernel drawing with 10% too much variance must be rejected by the
    # same data
    mutation = check_kernel_variance_mutation(trials=TRIALS, seed=11_011)
    _report(10, "Monte Carlo kernel vs full-frame LS path", fit.passed and mutation.passed,
            f"{fit.line()}; {mutation.line()}")
