"""Threshold design, the accept/reject test, and its closed-form error rates.

Under the legitimate hypothesis the test statistic T = |estimate - enrolled
fingerprint| is Rayleigh with per-component scale sqrt(v/2), where v is the
complex estimation-error variance; under an attack it is Rician with
noncentrality equal to the fingerprint distance.  Note the scale is the
square root of half the complex variance, not the half-variance itself;
the Monte Carlo validation suite pins this convention down.

The detection probability is Q1(mu/s, delta/s) and the missed-detection
probability its complement 1 - Q1; each is its own side of ``special``'s
Marcum pair, computed alone and never as one minus the other, so both stay
relatively accurate deep in their tails (a strong attacker's missed
detection of 1e-26, say).

There is no detector object: ``authenticate`` takes the enrolled
fingerprint, the estimation-error variance and the target false-alarm rate
with each estimate, and derives its threshold from them with
``design_threshold``, so a threshold is never set freely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import ParameterError
from .estimation import FingerprintEstimate


def fingerprint_distance(value, ground_truth):
    """Test statistic |value - ground_truth|.

    Evaluated as sqrt(re^2 + im^2) from elementary correctly-rounded ops, so
    the scalar decision path and the batched full-frame path produce
    bit-identical statistics.  Accepts complex scalars or arrays, served by
    one of three paths that all give these same bits:

    - a Python ``complex`` difference (one episode's decision): ``math.sqrt``,
      correctly rounded like ``np.sqrt``;
    - a C-contiguous complex128 array with at least one axis (the engine and
      the full-frame path): the difference, which this function owns, is
      squared in place through its float64 view, its interleaved halves are
      added, and the square root is taken in place;
    - anything else (numpy scalars, 0-d or strided arrays): the generic
      expression.
    """
    d = value - ground_truth
    if type(d) is complex:
        return math.sqrt(d.real * d.real + d.imag * d.imag)
    if (isinstance(d, np.ndarray) and d.dtype == np.complex128 and d.ndim > 0
            and d.flags.c_contiguous):
        parts = d.view(np.float64)
        np.multiply(parts, parts, out=parts)
        out = parts[..., 0::2] + parts[..., 1::2]
        return np.sqrt(out, out=out)
    return np.sqrt(d.real * d.real + d.imag * d.imag)


def design_threshold(target_pfa: float, est_variance: float) -> float:
    """Decision threshold sqrt(-ln(target_pfa) * est_variance); false-alarm
    rate of the resulting test equals target_pfa exactly."""
    if not (0.0 < target_pfa < 1.0):
        raise ParameterError(f"target_pfa must lie in (0, 1), got {target_pfa!r}")
    _check_variance(est_variance)
    return math.sqrt(-math.log(target_pfa) * est_variance)


def _check_variance(est_variance: float) -> None:
    if not math.isfinite(est_variance) or est_variance <= 0.0:
        raise ParameterError(f"est_variance must be > 0, got {est_variance!r}")


def _rice_scale(est_variance: float) -> float:
    """Per-component scale sqrt(v/2) of the statistic's Rice/Rayleigh law."""
    _check_variance(est_variance)
    s = math.sqrt(est_variance / 2.0)
    if s == 0.0:
        raise ParameterError(
            f"est_variance {est_variance!r} is too small: its scale sqrt(v/2) rounds to 0.0")
    return s


def analytic_pfa(threshold: float, est_variance: float) -> float:
    """False-alarm probability exp(-threshold^2 / est_variance): the Rayleigh
    tail P(T > threshold), evaluated as exp(-z^2/2) with z = threshold/s."""
    s = _rice_scale(est_variance)
    threshold = special._check_nonneg(threshold, "threshold")
    z = threshold / s
    return math.exp(-0.5 * z * z)


def _marcum_side(side: int, mu_mag, threshold, est_variance: float):
    """Side ``side`` (0: Q1, 1: 1 - Q1) of the Marcum pair at
    (mu/s, threshold/s), s = sqrt(v/2): mu_mag and threshold broadcast
    against each other, and the whole grid is one ``special.marcum_q1_grid``
    call that computes only that side; scalars give a float."""
    s = _rice_scale(est_variance)
    p = special.marcum_q1_grid(np.divide(mu_mag, s), np.divide(threshold, s), side)
    return float(p) if p.ndim == 0 else p


def analytic_pd(mu_mag, threshold, est_variance: float):
    """Detection probability Q1(mu/s, threshold/s), s = sqrt(v/2)."""
    return _marcum_side(0, mu_mag, threshold, est_variance)


def analytic_pmd(mu_mag, threshold, est_variance: float):
    """Missed-detection probability 1 - Q1(mu/s, threshold/s), s = sqrt(v/2):
    the Rice cdf of the statistic at the threshold."""
    return _marcum_side(1, mu_mag, threshold, est_variance)


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of one test: statistic, verdict, and the threshold applied.

    Ties reject: a statistic exactly at the threshold declares an attack
    (measure-zero under the continuous model, pinned for determinism).
    """

    statistic: float
    accepted: bool
    threshold_used: float


def authenticate(estimate: FingerprintEstimate, ground_truth: complex,
                 est_variance: float, target_pfa: float) -> AuthDecision:
    """Compare the fingerprint estimate against the enrolled ground truth at
    the threshold ``design_threshold(target_pfa, est_variance)``."""
    threshold = design_threshold(target_pfa, est_variance)
    if not math.isclose(estimate.error_variance, est_variance, rel_tol=1e-9, abs_tol=0.0):
        warnings.warn(
            "estimate error_variance "
            f"{estimate.error_variance!r} differs from detector est_variance "
            f"{est_variance!r}; the detector's value is used",
            stacklevel=2,
        )
    statistic = float(fingerprint_distance(estimate.value, ground_truth))
    return AuthDecision(
        statistic=statistic,
        accepted=statistic < threshold,
        threshold_used=threshold,
    )
