"""Threshold design, the accept/reject test, and its closed-form error rates.

Under the legitimate hypothesis the test statistic T = |estimate - enrolled
fingerprint| is Rayleigh with per-component scale sqrt(v/2), where v is the
complex estimation-error variance; under an attack it is Rician with
noncentrality equal to the fingerprint distance.  Note the scale is the
square root of half the complex variance, not the half-variance itself;
the Monte Carlo validation suite pins this convention down.

The detection probability is Q1(mu/s, delta/s) and the missed-detection
probability its complement 1 - Q1; each is read from its own side of
``special``'s Marcum pair, never as one minus the other, so both stay
relatively accurate deep in their tails (a strong attacker's missed
detection of 1e-26, say).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
    if not math.isfinite(est_variance) or est_variance <= 0.0:
        raise ParameterError(f"est_variance must be > 0, got {est_variance!r}")
    return math.sqrt(-math.log(target_pfa) * est_variance)


def _rice_scale(est_variance: float) -> float:
    """Per-component scale sqrt(v/2) of the statistic's Rice/Rayleigh law."""
    if not math.isfinite(est_variance) or est_variance <= 0.0:
        raise ParameterError(f"est_variance must be > 0, got {est_variance!r}")
    return math.sqrt(est_variance / 2.0)


def analytic_pfa(threshold: float, est_variance: float) -> float:
    """False-alarm probability exp(-threshold^2 / est_variance)."""
    return special.rayleigh_tail(threshold, _rice_scale(est_variance))


def analytic_pd(mu_mag: float, threshold: float, est_variance: float) -> float:
    """Detection probability Q1(mu/s, threshold/s), s = sqrt(v/2)."""
    s = _rice_scale(est_variance)
    return special.marcum_q1(mu_mag / s, threshold / s)


def analytic_pmd(mu_mag: float, threshold: float, est_variance: float) -> float:
    """Missed-detection probability 1 - Q1(mu/s, threshold/s), s = sqrt(v/2)."""
    s = _rice_scale(est_variance)
    return special.rice_cdf(threshold, special.RiceParams(nu=mu_mag, sigma=s))


@dataclass(frozen=True)
class DetectorConfig:
    """Enrolled fingerprint plus the threshold derived from the target
    false-alarm rate; the threshold is always recomputed, never free-set."""

    ground_truth: complex
    est_variance: float
    target_pfa: float
    threshold: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ground_truth", complex(self.ground_truth))
        object.__setattr__(
            self, "threshold", design_threshold(self.target_pfa, self.est_variance)
        )


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of one test: statistic, verdict, and the threshold applied.

    Ties reject: a statistic exactly at the threshold declares an attack
    (measure-zero under the continuous model, pinned for determinism).
    """

    statistic: float
    accepted: bool
    threshold_used: float


def authenticate(estimate: FingerprintEstimate, config: DetectorConfig) -> AuthDecision:
    """Compare the fingerprint estimate against the enrolled ground truth."""
    if not math.isclose(
        estimate.error_variance, config.est_variance, rel_tol=1e-9, abs_tol=0.0
    ):
        warnings.warn(
            "estimate error_variance "
            f"{estimate.error_variance!r} differs from detector est_variance "
            f"{config.est_variance!r}; the detector's value is used",
            stacklevel=2,
        )
    statistic = float(fingerprint_distance(estimate.value, config.ground_truth))
    return AuthDecision(
        statistic=statistic,
        accepted=statistic < config.threshold,
        threshold_used=config.threshold,
    )
