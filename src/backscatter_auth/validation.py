"""Independent oracles and the built-in self-validation checks.

Everything here exists to certify the closed-form / series code paths from
the outside: the oracles are adaptive quadratures of defining integrals
(via scipy's QUADPACK) and never call into ``backscatter_auth.special``'s
series code, and the statistical checks compare analytic error
probabilities against seeded runs of the Monte Carlo engine.  The engine
draws the LS estimate from its closed-form law instead of simulating the
frame, so one check holds its statistics to the full-frame LS path in
distribution.  The CLI ``validate`` command and the test suite both run
these.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import integrate
from scipy import special as sp_special

from . import detection, experiments, signaling, special
from .rng import RngHandle

# quadrature tolerance: comfortably below every certification threshold here
_QUAD_EPSREL = 1e-13


def _rice_integrand(a: float):
    """x exp(-(x^2+a^2)/2) I0(a x), arranged as x exp(-(x-a)^2/2) *
    [e^-ax I0(ax)] with scipy's i0e so that it does not overflow."""

    def integrand(x: float) -> float:
        return x * math.exp(-0.5 * (x - a) ** 2) * sp_special.i0e(a * x)

    return integrand


def _quad_pieces(integrand, edges) -> float:
    """Sum of adaptive quadratures over consecutive pieces of ``edges``."""
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi,
                                 epsabs=0.0, epsrel=_QUAD_EPSREL, limit=400)
        total += part
    return total


def marcum_q1_oracle(a: float, b: float) -> float:
    """Q1(a,b) by adaptive quadrature of the defining integral
    integral_b^inf x exp(-(x^2+a^2)/2) I0(a x) dx."""
    # split at the density mode for quadrature stability on wide ranges
    points = sorted(pt for pt in {max(a, 1.0), a + 10.0, b + 10.0} if pt > b)
    return _quad_pieces(_rice_integrand(a), [b, *points, np.inf])


def marcum_q1c_oracle(a: float, b: float) -> float:
    """1 - Q1(a,b) by adaptive quadrature of the same integrand over [0, b],
    so the lower tail is integrated directly, never subtracted from 1."""
    points = sorted(pt for pt in {max(a, 1.0), a - 10.0, b - 10.0} if 0.0 < pt < b)
    return _quad_pieces(_rice_integrand(a), [0.0, *points, b])


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max empirical CDF gap).

    One merge of the two sorted samples: a stable sort of their
    concatenation (two presorted runs) says which sample each merged value
    came from, so running counts give both empirical CDFs.  They are read at
    the last element of each run of tied values, where each CDF counts every
    value <= it: the same counts, quotients and maximum as evaluating both
    CDFs at every sample point.
    """
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    at = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    count_a = np.cumsum(order < a.size)[at]
    count_b = at + 1 - count_a
    return float(np.abs(count_a / a.size - count_b / b.size).max())


def ks_critical(alpha: float, n: int, m: int) -> float:
    """Large-sample two-sample KS critical value at level alpha."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


@dataclass
class CheckResult:
    """One row of the self-validation report."""

    name: str
    passed: bool
    observed: float
    limit: float
    detail: str = ""
    seconds: float = 0.0  # wall time, set by run_all

    def __post_init__(self):
        # numpy scalars sneak in from the Monte Carlo paths; keep the report
        # plain-Python so it serializes
        self.passed = bool(self.passed)
        self.observed = float(self.observed)
        self.limit = float(self.limit)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: observed {self.observed:.3e} "
                f"(limit {self.limit:.3e}) {self.detail}".rstrip())


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


# below this, results sit in double precision's denormal territory and keep
# absolute accuracy only; relative checks skip such reference values
_MARCUM_REF_FLOOR = 1e-290
# the worst relative error either Marcum side may show against its oracle
_MARCUM_TOL = 1e-10


def _worst_marcum_error(fn, oracle, rows) -> tuple[float, tuple[float, float], float]:
    """Worst relative error of fn against oracle over the (a, bs) rows, where
    it occurred, and the smallest reference value checked.  fn evaluates
    each a-row in one call, the multi-point path roc and sweep run; the
    oracle goes point by point."""
    worst = 0.0
    worst_at = (0.0, 0.0)
    smallest = 1.0
    for a, bs in rows:
        for b, value in zip(bs, fn(a, np.array(bs)).tolist()):
            ref = oracle(a, b)
            if ref < _MARCUM_REF_FLOOR:
                continue
            smallest = min(smallest, ref)
            err = abs(value - ref) / ref
            if err > worst:
                worst, worst_at = err, (a, b)
    return worst, worst_at, smallest


def _square_grid(stop: float, step: float) -> list[float]:
    return [float(x) for x in np.arange(0.0, stop + step / 2, step)]


def _domain_band(above: bool, past: float) -> list[tuple[float, list[float]]]:
    """Rows (a, bs) of the summed domain outside the square a, b <= past: the
    step-5 grid on past < max(a, b) <= special._SUM_DOMAIN inside the
    underflow cut-off, keeping the points whose summed side is Q1 (b > a,
    ``above``) or 1 - Q1 (b <= a)."""
    gap = math.sqrt(2.0 * special._MARCUM_UNDERFLOW_EXPONENT)
    grid = _square_grid(special._SUM_DOMAIN, 5.0)
    rows = [(a, [b for b in grid if max(a, b) > past and abs(a - b) <= gap and (b > a) == above])
            for a in grid]
    return [(a, bs) for a, bs in rows if bs]


def check_marcum_vs_quadrature(step: float = 0.25, wide_step: float | None = None) -> CheckResult:
    """Worst relative error of marcum_q1 against the quadrature oracle on
    the grid a, b in {0, step, ..., 10}, plus, with ``wide_step``, the
    sparse grid {0, wide_step, ..., 50} outside that square, plus the
    summed domain's band past 50 where Q1 is the summed side."""
    dense = _square_grid(10.0, step)
    rows = [(a, dense) for a in dense] + _domain_band(above=True, past=50.0)
    if wide_step is not None:
        sparse = _square_grid(50.0, wide_step)
        rows += [(a, bs) for a in sparse
                 if (bs := [b for b in sparse if max(a, b) > 10.0])]
    worst, worst_at, _ = _worst_marcum_error(
        special.marcum_q1,
        lambda a, b: marcum_q1_oracle(a, b) if b > 0 else 1.0,
        rows,
    )
    return CheckResult(
        name="marcum_q1 vs defining-integral quadrature",
        passed=worst <= _MARCUM_TOL,
        observed=worst,
        limit=_MARCUM_TOL,
        detail=f"worst at (a,b)={worst_at} over {sum(len(bs) for _, bs in rows)} points",
    )


def check_marcum_complement_vs_quadrature(step: float = 1.0) -> CheckResult:
    """Worst relative error of marcum_q1c against the quadrature of the
    Rice density over [0, b], on a, b in {0, step, ..., 40} and the summed
    domain's band past 40 where 1 - Q1 is the summed side; with b < a the
    complement reaches far below 1e-200, where 1 - marcum_q1 reads 0."""
    grid = _square_grid(40.0, step)
    rows = [(a, grid) for a in grid] + _domain_band(above=False, past=40.0)
    worst, worst_at, smallest = _worst_marcum_error(special.marcum_q1c, marcum_q1c_oracle, rows)
    return CheckResult(
        name="marcum_q1c vs lower-tail quadrature",
        passed=worst <= _MARCUM_TOL,
        observed=worst,
        limit=_MARCUM_TOL,
        detail=f"worst at (a,b)={worst_at}, smallest reference {smallest:.1e}",
    )


def check_false_alarm_grid(trials: int = 100_000, seed: int = 20240) -> CheckResult:
    """Empirical end-to-end H0 rejection rate vs target P_fa on the
    (P_fa, SINR) grid; pass iff every cell is inside 4 binomial stderr."""
    pfa_grid = (0.01, 0.05, 0.1, 0.3)
    worst_sigma = 0.0
    worst_at = ""
    for sinr_db in (0.0, 5.0, 10.0):
        cfg = experiments.ExperimentConfig(
            sinr_db=sinr_db, n_train=8, mu_mag=1.0,
            pfa_grid=pfa_grid, trials=trials, seed=seed,
        )
        rates = experiments.empirical_rejection_rates(cfg, hypothesis="h0")
        for target, rate in zip(pfa_grid, rates):
            stderr = math.sqrt(target * (1.0 - target) / trials)
            n_sigma = abs(rate - target) / stderr
            if n_sigma > worst_sigma:
                worst_sigma = n_sigma
                worst_at = f"pfa={target}, sinr={sinr_db} dB"
    return CheckResult(
        name="false-alarm closed form vs Monte Carlo",
        passed=worst_sigma <= 4.0,
        observed=worst_sigma,
        limit=4.0,
        detail=f"worst deviation (in stderr units) at {worst_at}",
    )


# the missed-detection grid: attacker distances at 5 dB, one training
# symbol, a threshold designed for a false-alarm rate of 0.1
_PMD_MUS, _PMD_SINR_DB, _PMD_TARGET_PFA = (0.25, 0.5, 1.0, 2.0), 5.0, 0.1


def _missed_detection_deviation(trials: int, seed: int, pmd_fn) -> tuple[float, str]:
    """Worst |empirical - analytic| missed-detection gap in stderr units on
    the missed-detection grid, with the analytic side supplied by
    ``pmd_fn(mu, threshold, est_variance)``."""
    worst_sigma = 0.0
    worst_at = ""
    for mu in _PMD_MUS:
        cfg = experiments.ExperimentConfig(
            sinr_db=_PMD_SINR_DB, n_train=1, mu_mag=mu,
            pfa_grid=(_PMD_TARGET_PFA,), trials=trials, seed=seed,
        )
        accept_rate = 1.0 - experiments.empirical_rejection_rates(cfg, hypothesis="h1")[0]
        delta = detection.design_threshold(_PMD_TARGET_PFA, cfg.est_variance)
        pmd = pmd_fn(mu, delta, cfg.est_variance)
        stderr = math.sqrt(max(pmd * (1.0 - pmd), 1e-12) / trials)
        n_sigma = abs(accept_rate - pmd) / stderr
        if n_sigma > worst_sigma:
            worst_sigma = n_sigma
            worst_at = f"mu={mu}"
    return worst_sigma, worst_at


def check_missed_detection_grid(trials: int = 100_000, seed: int = 20241) -> CheckResult:
    """Empirical H1 acceptance rate vs the library's missed-detection law.

    Goes through detection.analytic_pmd on purpose: a wrong scale convention
    anywhere in that path makes this check fail (see the mutation check)."""
    worst, at = _missed_detection_deviation(trials, seed, pmd_fn=detection.analytic_pmd)
    return CheckResult(
        name="missed-detection closed form vs Monte Carlo",
        passed=worst <= 4.0,
        observed=worst,
        limit=4.0,
        detail=f"worst deviation (in stderr units) at {at}",
    )


def check_scale_convention_mutation(trials: int = 100_000, seed: int = 20241) -> CheckResult:
    """Mutation power check: reading the half-variance v/2 literally as the
    Rice scale must be rejected by the same Monte Carlo grid."""

    def mutated_pmd(mu: float, delta: float, v: float) -> float:
        s_bad = v / 2.0
        return special.marcum_q1c(mu / s_bad, delta / s_bad)

    worst, at = _missed_detection_deviation(trials, seed, pmd_fn=mutated_pmd)
    return CheckResult(
        name="scale-convention mutation rejected",
        passed=worst > 4.0,
        observed=worst,
        limit=4.0,
        detail=f"mutated law deviates by {worst:.1f} stderr at {at} (must exceed 4)",
    )


def _worst_component(components) -> tuple[float, float]:
    """The (observed, limit) pair of a multi-part check that reports its
    verdict: a failing (or NaN) pair before any passing one, then the
    largest observed-to-limit ratio, so the check passes iff observed <= limit."""
    return max(components, key=lambda c: (not c[0] <= c[1], c[0] / c[1]))


def check_consolidation_equivalence(n: int = 100_000, seed: int = 20242) -> CheckResult:
    """Single-draw and expanded-path exchanges must agree in mean (4 stderr),
    complex variance (2%), and KS statistic on |y| (1% critical value).
    The n samples are n responses to a one-symbol challenge, which use the
    streams as one n-symbol frame would, and cache no n-symbol frame."""
    scenario = experiments.canonical_scenario(sinr_db=5.0, n_train=1, mu_mag=0.0)
    challenge = signaling.SignalFrame.all_ones(1)
    y_cons = signaling.exchange(
        challenge, scenario.legit_link, scenario.tx, scenario.noise,
        RngHandle(seed, (0,)), n)[:, 0]
    y_exp = signaling.exchange_expanded(
        challenge, scenario.legit_link, scenario.tx, scenario.noise,
        RngHandle(seed, (1,)), n)[:, 0]

    var_total = scenario.noise.total_variance
    mean_gap = abs(np.mean(y_cons) - np.mean(y_exp))
    mean_limit = 4.0 * math.sqrt(2.0) * math.sqrt(var_total / n)

    v1 = float(np.var(y_cons))
    v2 = float(np.var(y_exp))
    var_gap = abs(v1 - v2) / var_total

    ks = ks_statistic(np.abs(y_cons), np.abs(y_exp))
    ks_limit = ks_critical(0.01, n, n)

    observed, limit = _worst_component([(mean_gap, mean_limit), (var_gap, 0.02), (ks, ks_limit)])
    return CheckResult(
        name="signaling consolidation equivalence",
        passed=observed <= limit,
        observed=observed,
        limit=limit,
        detail=(f"mean gap {mean_gap:.2e}/{mean_limit:.2e}, "
                f"variance gap {var_gap:.2%}/2%, KS vs 1% critical"),
    )


def check_estimator_statistics(trials: int = 100_000, seed: int = 20243) -> CheckResult:
    """LS estimate must be unbiased with per-component variance v/2."""
    scenario = experiments.canonical_scenario(sinr_db=5.0, n_train=8, mu_mag=0.0)
    est = experiments.simulate_estimates(scenario, scenario.legit_link,
                                         trials, RngHandle(seed, (2,)))
    v = scenario.est_variance
    truth = scenario.legit_link.h_res
    comp_se = math.sqrt(v / 2.0 / trials)
    bias_re = abs(float(np.mean(est.real)) - truth.real)
    bias_im = abs(float(np.mean(est.imag)) - truth.imag)
    var_re = float(np.var(est.real))
    var_im = float(np.var(est.imag))
    var_err = max(abs(var_re - v / 2.0), abs(var_im - v / 2.0)) / (v / 2.0)
    observed, limit = _worst_component(
        [(bias_re, 4 * comp_se), (bias_im, 4 * comp_se), (var_err, 0.02)])
    return CheckResult(
        name="LS estimator bias/variance",
        passed=observed <= limit,
        observed=observed,
        limit=limit,
        detail=(f"per-component bias ({bias_re:.2e}, {bias_im:.2e}) "
                f"vs 4*stderr {4 * comp_se:.2e}; variance error vs v/2"),
    )


def _kernel_check_scenario() -> experiments.Scenario:
    return experiments.canonical_scenario(sinr_db=5.0, n_train=8, mu_mag=0.5)


@functools.lru_cache(maxsize=4)
def _frame_reference(reference: int, seed: int, h: int) -> np.ndarray:
    """Full-frame LS statistics under hypothesis h, drawn once per
    (size, seed, h): the kernel check and its mutation twin test against
    the same reference.  Returned write-protected."""
    scenario = _kernel_check_scenario()
    est = experiments.simulate_estimates(scenario, scenario.link_for(h), reference,
                                         RngHandle(seed, (h, 0)))
    frame = detection.fingerprint_distance(est, scenario.ground_truth)
    frame.setflags(write=False)
    return frame.view()  # a view of a locked array cannot be unlocked


def _kernel_deviation(trials: int, seed: int, variance_factor: float) -> tuple[float, float, str]:
    """Worst two-sample KS statistic, over H0 and H1, between trials/2
    full-frame LS statistics and 10*trials engine-kernel statistics whose
    variance is scaled by ``variance_factor``; with the 1% critical value."""
    scenario = _kernel_check_scenario()
    kernel_scenario = replace(scenario, est_variance=variance_factor * scenario.est_variance)
    reference, draws = max(1, trials // 2), 10 * trials
    worst = 0.0
    worst_at = ""
    for h in (0, 1):
        kernel = experiments.simulate_statistics(kernel_scenario, scenario.link_for(h), draws,
                                                 RngHandle(seed, (h, 1)))
        ks = ks_statistic(_frame_reference(reference, seed, h), kernel)
        if ks > worst:
            worst, worst_at = ks, f"H{h}"
    return worst, ks_critical(0.01, reference, draws), worst_at


def check_kernel_vs_frame_path(trials: int = 100_000, seed: int = 20244) -> CheckResult:
    """The engine's one-draw kernel must match the full-frame LS path in
    distribution: KS on the test statistic under H0 and H1, at the 1%
    critical value."""
    worst, limit, at = _kernel_deviation(trials, seed, variance_factor=1.0)
    return CheckResult(
        name="Monte Carlo kernel vs full-frame LS path",
        passed=worst <= limit,
        observed=worst,
        limit=limit,
        detail=f"worst KS statistic at {at}, vs 1% critical",
    )


def check_kernel_variance_mutation(trials: int = 100_000, seed: int = 20244) -> CheckResult:
    """Mutation power check: a kernel drawing with 1.10x the estimation-error
    variance must be rejected by the same KS test."""
    worst, limit, at = _kernel_deviation(trials, seed, variance_factor=1.10)
    return CheckResult(
        name="kernel variance mutation rejected",
        passed=worst > limit,
        observed=worst,
        limit=limit,
        detail=f"mutated kernel's KS statistic at {at} (must exceed the 1% critical)",
    )


def run_all(fast: bool = False, seed: int = 2024, trials: int | None = None) -> ValidationReport:
    """The full self-validation battery, as run by the CLI validate command;
    each check's wall time is recorded in its ``seconds``."""
    if trials is None:
        trials = 20_000 if fast else 100_000
    checks = [
        lambda: check_marcum_vs_quadrature(step=1.0 if fast else 0.25,
                                           wide_step=None if fast else 2.5),
        lambda: check_marcum_complement_vs_quadrature(step=2.5 if fast else 1.0),
        lambda: check_false_alarm_grid(trials=trials, seed=seed + 1),
        lambda: check_missed_detection_grid(trials=trials, seed=seed + 2),
        lambda: check_scale_convention_mutation(trials=trials, seed=seed + 2),
        lambda: check_consolidation_equivalence(n=trials, seed=seed + 3),
        lambda: check_estimator_statistics(trials=trials, seed=seed + 4),
        lambda: check_kernel_vs_frame_path(trials=trials, seed=seed + 5),
        lambda: check_kernel_variance_mutation(trials=trials, seed=seed + 5),
    ]
    report = ValidationReport()
    for check in checks:
        start = time.perf_counter()
        result = check()
        result.seconds = time.perf_counter() - start
        report.add(result)
    return report
