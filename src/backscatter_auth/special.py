"""Special-function numerics: modified Bessel I0, Marcum Q1, Rayleigh/Rice laws.

Design notes
------------
``bessel_i0``
    Ascending power series ``sum_k (x^2/4)^k / (k!)^2`` up to x = 40 (all
    terms positive, worst case ~70 terms), then the large-argument
    asymptotic expansion of the exponentially scaled function
    ``e^-x I0(x) ~ (2 pi x)^{-1/2} sum_k ((2k-1)!!)^2 / (k! (8x)^k)``
    (DLMF 10.40.1) truncated at relative 1e-17.  The unscaled value is the
    scaled one times e^x and overflows past x ~ 709; callers in that range
    must use ``bessel_i0_scaled``.

``marcum_q1`` / ``marcum_q1c``
    Both read one private pair ``(Q1, 1 - Q1)``.  Poisson-mixture form of
    the noncentral chi-square (2 dof) tail:

        Q1(a,b) = sum_{k>=0} Pois(k; a^2/2) * P[Pois(b^2/2) <= k]
        1 - Q1(a,b) = sum_{m>=0} Pois(m+1; b^2/2) * P[Pois(a^2/2) <= m]

    Every term is positive, so there is no cancellation anywhere; the term
    sequence is log-concave, hence unimodal, and is summed over a window
    centred on its peak (near max(a^2/2, ab/2)).  The Poisson pmf/cdf
    factors are seeded in log space (lgamma) at the window edge and advanced
    by two-term recurrences, which keeps everything finite for arguments far
    beyond the overflow range of the textbook Bessel-series form.  Whichever
    of Q and 1-Q is the smaller is the one summed directly and the other is
    its complement, so each side keeps full relative accuracy in its own
    tail.  Closed forms are used on the axes: Q1(a, 0) = 1 and
    Q1(0, b) = exp(-b^2/2).

    Underflow cut-off: with T = |a + Z|, Z standard complex normal (unit
    variance per component), T <= b forces |Z| >= a - b, so
    1 - Q1 <= exp(-(a-b)^2/2) when b < a; likewise Q1 <= exp(-(b-a)^2/2)
    when b > a.  Once (a-b)^2/2 exceeds 745.2 the smaller side lies below
    half the smallest subnormal and is exactly 0.0 in double precision, so
    the sum is skipped.  The sum therefore only runs for |a - b| <= 38.61.
    The detector's callers pass b = sqrt(-2 ln pfa) <= 38.6 for any double
    pfa, so a <= 77.2 whenever they reach the sum and every analytic ROC
    point has bounded cost, however strong the attacker.

The defining-integral quadrature oracle used to certify these routines
lives in ``backscatter_auth.validation``, deliberately not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

_REL_EPS = 1e-17
_I0_SERIES_CUTOFF = 40.0
# (a-b)^2/2 past which exp(-(a-b)^2/2), the bound on the smaller of Q1 and
# 1-Q1, is below half the smallest subnormal (exp(-745.13)): that side is 0.0
_MARCUM_UNDERFLOW_EXPONENT = 745.2


def _check_nonneg(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Relative error <= 1e-12 on [0, 700].  Raises ParameterError past the
    double-precision overflow point (~709.7); use ``bessel_i0_scaled`` there.
    """
    x = _check_nonneg(x, "x")
    if x <= _I0_SERIES_CUTOFF:
        return _i0_series(x)
    try:
        return math.exp(x) * _i0e_asymptotic(x)
    except OverflowError:
        raise ParameterError(
            f"bessel_i0 overflows for x={x!r}; use bessel_i0_scaled"
        ) from None


def bessel_i0_scaled(x: float) -> float:
    """Exponentially scaled Bessel function e^-x * I0(x), finite for all x >= 0."""
    x = _check_nonneg(x, "x")
    if x <= _I0_SERIES_CUTOFF:
        return math.exp(-x) * _i0_series(x)
    return _i0e_asymptotic(x)


def _i0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= q / (k * k)
        total += term
        if term <= total * _REL_EPS:
            return total
        k += 1


def _i0e_asymptotic(x: float) -> float:
    inv8x = 1.0 / (8.0 * x)
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= (2 * k - 1) ** 2 * inv8x / k
        total += term
        # the series is asymptotic; for x > 40 it reaches 1e-17 long before
        # the terms turn around, the cap is a safety net only
        if term <= total * _REL_EPS or k > 200:
            return total / math.sqrt(2.0 * math.pi * x)
        k += 1


def _pois_pmf(k: int, theta: float) -> float:
    """e^-theta theta^k / k!, evaluated in log space (harmless under/overflow-free)."""
    if theta == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(theta) - theta - math.lgamma(k + 1))


def _pois_cdf(m: int, theta: float) -> float:
    """P[Pois(theta) <= m], relatively accurate even deep in the left tail."""
    if m < 0:
        return 0.0
    if theta == 0.0:
        return 1.0
    if m >= theta:
        # complement of the upper tail; the tail is summed forward with
        # decaying terms and is <= ~0.5 here, so the subtraction is benign
        j = m + 1
        term = _pois_pmf(j, theta)
        tail = 0.0
        while term > 0.0:
            tail += term
            j += 1
            term *= theta / j
            if term <= tail * _REL_EPS:
                tail += term
                break
        return 1.0 - tail
    # left tail: descend from m, terms decay by a factor j/theta < 1
    term = _pois_pmf(m, theta)
    total = 0.0
    j = m
    while j >= 0 and term > 0.0:
        total += term
        if term <= total * _REL_EPS:
            break
        term *= j / theta
        j -= 1
    return total


# below this, exp() lands in (or near) the denormal range where its output
# keeps only a few significand bits; a recurrence seeded there would carry
# that relative error forever, so keep re-seeding from logs until clear
_PMF_RESEED_FLOOR = 1e-290


def _advance_pmf(p: float, k: int, theta: float) -> float:
    """p_{k} from p_{k-1}; re-seed from logs while the rising flank is too
    small for the recurrence seed to be trustworthy."""
    p *= theta / k
    if p < _PMF_RESEED_FLOOR and k < theta:
        p = _pois_pmf(k, theta)
    return p


def _marcum_mixture_sum(theta_p: float, theta_c: float, shift: int) -> float:
    """sum_{m>=0} Pois(m+shift; theta_p) * P[Pois(theta_c) <= m].

    shift=0 with (a^2/2, b^2/2) is Q1(a,b); shift=1 with the roles swapped
    is 1 - Q1(a,b).  Requires theta_p > 0.
    """
    peak = max(theta_p, math.sqrt(theta_p * theta_c))
    m_lo = max(0, int(peak - 10.0 * math.sqrt(peak + 1.0) - 20.0))
    fence = max(
        theta_p + 12.0 * math.sqrt(theta_p + 1.0),
        peak + 12.0 * math.sqrt(peak + 1.0),
    ) + 20.0

    p = _pois_pmf(m_lo + shift, theta_p)
    q = _pois_pmf(m_lo, theta_c)
    cdf = _pois_cdf(m_lo, theta_c)

    total = 0.0
    m = m_lo
    while True:
        total += p * cdf
        if m >= fence and p * cdf <= total * _REL_EPS:
            return total
        m += 1
        p = _advance_pmf(p, m + shift, theta_p)
        q = _advance_pmf(q, m, theta_c)
        cdf += q
        if cdf > 1.0:
            cdf = 1.0


def _marcum_pair(a: float, b: float) -> tuple[float, float]:
    """(Q1(a, b), 1 - Q1(a, b)), the smaller side summed and the other its
    complement; the smaller side is exactly 0.0 past the underflow cut-off."""
    a = _check_nonneg(a, "a")
    b = _check_nonneg(b, "b")
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        half_b2 = 0.5 * b * b
        return math.exp(-half_b2), -math.expm1(-half_b2)
    if 0.5 * (a - b) ** 2 > _MARCUM_UNDERFLOW_EXPONENT:
        return (0.0, 1.0) if b > a else (1.0, 0.0)
    alpha = 0.5 * a * a
    beta = 0.5 * b * b
    # the sums are of positive terms; min() only absorbs last-ulp rounding
    if b > a:
        q = min(1.0, _marcum_mixture_sum(alpha, beta, 0))
        return q, 1.0 - q
    qc = min(1.0, _marcum_mixture_sum(beta, alpha, 1))
    return 1.0 - qc, qc


def marcum_q1(a: float, b: float) -> float:
    """Marcum Q-function of order 1: P(T > b) for T with density
    x exp(-(x^2+a^2)/2) I0(a x) on x >= 0.

    Target relative error <= 1e-10 for results down to ~1e-290 (certified
    on a <= 50, b <= 50 against the defining-integral quadrature oracle);
    smaller results sit in double precision's denormal territory and keep
    absolute accuracy only, with true values below ~1e-308 returned as 0.
    Where (a-b)^2/2 > 745.2 the result is exactly 0.0 (b > a) or 1.0
    (b < a) without summation (see the module notes), so the cost is
    bounded for every b <= 38.6, whatever a is; only when both a and b are
    large and close does it grow like O(a + b) summation steps.
    """
    return _marcum_pair(a, b)[0]


def marcum_q1c(a: float, b: float) -> float:
    """Complement 1 - Q1(a, b) = P(T <= b), relatively accurate in its own
    lower tail (down to ~1e-290, as ``marcum_q1``), not 1 minus a rounded Q1."""
    return _marcum_pair(a, b)[1]


def rayleigh_tail(delta: float, sigma: float) -> float:
    """P(T > delta) for Rayleigh T with per-component scale sigma:
    exp(-delta^2 / (2 sigma^2))."""
    delta = _check_nonneg(delta, "delta")
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ParameterError(f"sigma must be finite and > 0, got {sigma!r}")
    z = delta / sigma
    return math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class RiceParams:
    """Rician magnitude law: noncentrality nu >= 0, per-component scale sigma > 0.

    nu = 0 degenerates to Rayleigh(sigma).
    """

    nu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu < 0.0:
            raise ParameterError(f"nu must be finite and >= 0, got {self.nu!r}")
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ParameterError(f"sigma must be finite and > 0, got {self.sigma!r}")


def rice_cdf(x: float, params: RiceParams) -> float:
    """P(T <= x) for T ~ Rice(params): 1 - Q1(nu/sigma, x/sigma), read from
    the complement directly so the lower tail keeps its relative accuracy."""
    x = _check_nonneg(x, "x")
    return marcum_q1c(params.nu / params.sigma, x / params.sigma)
