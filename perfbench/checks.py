"""Output checks that are independent of the code they check.

Nothing here imports backscatter_auth.  Analytic ROC points are compared
with scipy's noncentral chi-square (Q1(a, b) = ncx2.sf(b^2, 2, a^2));
empirical points must lie within a fixed number of binomial standard
errors of that oracle; authentication verdicts are recomputed from the
estimate and the enrolled fingerprint.  All checks are statistical or
re-derived, never pinned to bytes, so they survive a change of the
engine's random-stream layout.

scipy is imported lazily: the benchmark reads its peak RSS before the
first oracle call, so the oracle's footprint does not count as the
program's.
"""

from __future__ import annotations

import math

import numpy as np

PD_REL_TOL = 1e-9  # analytic pd vs oracle; both are exact to ~1e-15 here
MC_SIGMAS = 6.0  # empirical pd vs oracle, in binomial standard errors
AUTH_REL_TOL = 1e-12  # reported statistic/threshold vs recomputed
HEADER = "pfa,pd,kind,stderr"


def pfa_grid() -> np.ndarray:
    """The grid the generated configs ask for (linspace:0.01:0.99:50)."""
    return np.linspace(0.01, 0.99, 50)


def parse_roc_csv(text: str) -> dict[str, np.ndarray]:
    """Columns of one ROC CSV; raises ValueError on any malformed line."""
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != 4 for r in rows):
        raise ValueError("row without 4 fields")
    return {
        "pfa": np.array([float(r[0]) for r in rows]),
        "pd": np.array([float(r[1]) for r in rows]),
        "kind": np.array([r[2] for r in rows]),
        "stderr": np.array([float(r[3]) for r in rows]),
    }


def _noncentral_chi2(mu: float, sinr_db: float, n_train: int, pfa: np.ndarray):
    """|h + e|^2 / (v/2) for e ~ CN(0, v), |h| = mu, v = 1/(SINR n_train) is
    noncentral chi-square with 2 dof and noncentrality a^2 = 2 mu^2 / v; the
    threshold delta = sqrt(-ln(pfa) v) maps to b^2 = -2 ln pfa."""
    from scipy.stats import ncx2

    a2 = 2.0 * mu * mu * (10.0 ** (sinr_db / 10.0)) * n_train
    return ncx2(2, a2), -2.0 * np.log(pfa)


def oracle_pd(mu: float, sinr_db: float, n_train: int, pfa: np.ndarray) -> np.ndarray:
    """Detection probability Q1(a, b)."""
    law, b2 = _noncentral_chi2(mu, sinr_db, n_train, pfa)
    return law.sf(b2)


def oracle_pmd(mu: float, sinr_db: float, n_train: int, pfa: np.ndarray) -> np.ndarray:
    """Missed-detection probability 1 - Q1(a, b), computed as a lower tail."""
    law, b2 = _noncentral_chi2(mu, sinr_db, n_train, pfa)
    return law.cdf(b2)


def analytic_curve_problems(curve: dict, expected_pd: np.ndarray) -> list[str]:
    problems = []
    grid = pfa_grid()
    if curve["pfa"].shape != grid.shape or not np.array_equal(curve["pfa"], grid):
        return ["pfa column differs from the requested grid"]
    if not np.all(curve["kind"] == "analytic"):
        problems.append("kind column is not 'analytic'")
    if not np.all(curve["stderr"] == 0.0):
        problems.append("analytic stderr is not 0")
    rel = np.abs(curve["pd"] - expected_pd) / expected_pd
    if not np.all(rel <= PD_REL_TOL):
        problems.append(f"analytic pd off the oracle by {np.max(rel):.3g} relative")
    return problems


def empirical_curve_problems(curve: dict, expected_pd: np.ndarray, trials: int) -> list[str]:
    problems = []
    grid = pfa_grid()
    if curve["pfa"].shape != grid.shape or not np.array_equal(curve["pfa"], grid):
        return ["pfa column differs from the requested grid"]
    if not np.all(curve["kind"] == "empirical"):
        problems.append("kind column is not 'empirical'")
    pd = curve["pd"]
    se = np.sqrt(expected_pd * (1.0 - expected_pd) / trials)
    z = np.abs(pd - expected_pd) / se
    if not np.all(z <= MC_SIGMAS):
        problems.append(f"empirical pd {np.max(z):.2f} standard errors off the oracle")
    if not np.allclose(curve["stderr"], np.sqrt(pd * (1.0 - pd) / trials), rtol=1e-12, atol=0.0):
        problems.append("stderr column is not sqrt(pd (1 - pd) / trials)")
    if np.any(np.diff(pd) < 0.0):
        problems.append("empirical pd decreases along the pfa grid")
    return problems


def auth_threshold(sinr_db: float, n_train: int, target_pfa: float) -> tuple[float, float]:
    """(estimation-error variance, decision threshold) for unit total noise."""
    v = 1.0 / (10.0 ** (sinr_db / 10.0) * n_train)
    return v, math.sqrt(-math.log(target_pfa) * v)


def episode_problems(estimate: complex, enrolled: complex, statistic: float,
                     accepted: bool, threshold_used: float, threshold: float) -> list[str]:
    """Recompute |estimate - enrolled| and the verdict statistic < threshold."""
    problems = []
    if not (math.isfinite(estimate.real) and math.isfinite(estimate.imag)):
        return ["non-finite estimate"]
    stat = abs(estimate - enrolled)
    if abs(threshold_used - threshold) > AUTH_REL_TOL * threshold:
        problems.append("threshold differs from sqrt(-ln(pfa) v)")
    if abs(statistic - stat) > AUTH_REL_TOL * stat + 1e-300:
        problems.append("statistic differs from |estimate - enrolled|")
    # a statistic within rounding of the threshold may go either way
    if abs(stat - threshold) > AUTH_REL_TOL * threshold and accepted != (stat < threshold):
        problems.append("verdict differs from statistic < threshold")
    return problems


def auth_run_problems(legit_accepts: int, legit_total: int, target_pfa: float,
                      attack_distance: np.ndarray, attack_rejects: int,
                      est_variance: float) -> list[str]:
    """Whole-run rates: legitimate accepts ~ Bin(n, 1 - pfa); attack rejects
    ~ Poisson-binomial with p_i = Q1(|dh_i| / s, delta / s), s = sqrt(v/2)."""
    from scipy.stats import ncx2

    problems = []
    if legit_total:
        p = 1.0 - target_pfa
        se = math.sqrt(p * (1.0 - p) / legit_total)
        z = abs(legit_accepts / legit_total - p) / se
        if z > MC_SIGMAS:
            problems.append(f"legitimate accept rate {z:.2f} standard errors off 1 - target_pfa")
    if attack_distance.size:
        p_reject = ncx2.sf(-2.0 * math.log(target_pfa), 2,
                           2.0 * attack_distance**2 / est_variance)
        mean = float(np.sum(p_reject))
        sd = math.sqrt(float(np.sum(p_reject * (1.0 - p_reject))))
        if abs(attack_rejects - mean) > MC_SIGMAS * sd + 1.0:
            problems.append(f"attack reject count {attack_rejects} vs expected {mean:.1f} (sd {sd:.1f})")
    return problems
