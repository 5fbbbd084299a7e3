"""Special-function numerics: the Marcum Q1 pair (Q1, 1 - Q1).

Design notes
------------
``marcum_q1`` / ``marcum_q1c`` / ``marcum_q1_grid``
    The grid kernel returns one side of the pair per call, the side its
    caller reads: 0 for Q1, 1 for 1 - Q1.  ``marcum_q1`` and ``marcum_q1c``
    are its two sides, a scalar point its one-point case.  Poisson-mixture
    form of the noncentral chi-square (2 dof) tail:

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

    Cut-offs, one per side: with T = |a + Z|, Z standard complex normal
    (unit variance per component), T <= b forces |Z| >= a - b, so
    1 - Q1 <= exp(-(a-b)^2/2) when b < a; likewise Q1 <= exp(-(b-a)^2/2)
    when b > a.  Underflow cut-off, on the smaller side: once (a-b)^2/2
    exceeds 745.2 that side lies below half the smallest subnormal and is
    exactly 0.0 in double precision, so the sum is skipped.  Rounding
    cut-off, on the larger side: once (a-b)^2/2 exceeds 38.0 (> 54 ln 2)
    the smaller side is below exp(-38) = 3.1e-17 < 2^-54, with room to
    spare for the sum's own error, and 1.0 minus any t <= 2^-54 rounds to
    1.0 (the tie at 2^-54 rounds to even); so the larger side is exactly
    1.0 and nothing is summed.  A strong attacker's detection probability
    is such a point.  The sum therefore only runs for |a - b| <= 38.61 on
    the smaller side and |a - b| <= 8.72 on the larger.  The detector's
    callers pass b = sqrt(-2 ln pfa) <= 38.6 for any double pfa, so
    a <= 77.2 whenever they reach the sum and every analytic ROC point has
    bounded cost, however strong the attacker.  A summed point
    must lie in the domain max(a, b) <= ``_SUM_DOMAIN`` (120), which
    ``validation`` certifies against quadrature; any other summed point
    raises ``ParameterError`` before anything is summed; a point past the
    rounding cut-off needs no domain on its larger side.

    Grid kernel: the axes and the cut-offs are masks over the whole grid
    (a cut-off squares a - b with one correctly rounded multiply; a libm
    pow could differ from it only within an ulp of the cut-off, where the
    summed side is 0.0, or rounds its complement to 1.0, as well).  Each
    remaining point is a row of the loop "term = p * cdf, total += term,
    stop at the first m >= fence with term <= total * 1e-17, advance p and
    q by one recurrence step, cdf = min(1, cdf + q)".  Its seeds
    (``_pois_pmf``/``_pois_cdf``: exp, log, lgamma) run per row in
    ``math``, since numpy's exp and log need not round as libm's do.  A
    row whose first step re-seeds below 1e-290 (tested with numpy's IEEE
    * / <, the loop's own bits) walks the short prefix of such steps in
    ``math``.  Past that prefix no step re-seeds again, and the rest of the
    row is numpy ``multiply.accumulate`` (the two recurrences) and
    ``add.accumulate`` (the cdf, clamped after the fact by min(1, .), and
    the total).  An accumulate runs strictly left to right, so each element
    is the loop's own IEEE operation on the loop's operands, and the window
    bounds are the loop's correctly rounded + * / sqrt trunc max: every
    output carries the bits of the scalar loop.  Rows run in blocks of at
    most ``_BLOCK_ELEMENTS`` per array, each block once: inside the domain
    every row stops within its window (~1900 steps at the widest).  On the
    detector's 800-point strong-attacker sweep this is one call, not 800.
    Only the smaller side is summed, so theta_p <= theta_c in every row
    (squaring is monotone in floating point): the cdf seed at m_lo < theta_c
    is a left tail, and theta_p is 0.0 only for a nonzero a or b below about
    2.2e-162.  No walk reaches its fence, peak + 12 sqrt(peak + 1) + 20: p is
    past its mode there, and on the summed domain log Pois(ceil(fence);
    theta_c) - log 1e-290 >= 52.7 (worst at theta_c = 745.1, theta_p -> 0),
    so q is not re-seeded there either; only the accumulates stop a row.

The defining-integral quadrature oracle used to certify these routines
lives in ``backscatter_auth.validation``, deliberately not here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_REL_EPS = 1e-17
# (a-b)^2/2 past which exp(-(a-b)^2/2), the bound on the smaller of Q1 and
# 1-Q1, is below half the smallest subnormal (exp(-745.13)): that side is 0.0
_MARCUM_UNDERFLOW_EXPONENT = 745.2
# (a-b)^2/2 past which that bound is below 2^-54 (54 ln 2 = 37.43): 1.0 minus
# the smaller side rounds to 1.0 (a tie rounds to even), so the larger is 1.0
_ROUNDING_EXPONENT = 38.0
# a summed point (off the axes, inside the cut-off) needs max(a, b) <= this:
# every detector point does (a <= 77.2), and its widest window fits a block
_SUM_DOMAIN = 120.0


def _check_nonneg(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _pois_pmf(k: int, theta: float) -> float:
    """e^-theta theta^k / k!, evaluated in log space (harmless under/overflow-free)."""
    if theta == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(theta) - theta - math.lgamma(k + 1))


def _pois_cdf(m: int, theta: float) -> float:
    """P[Pois(theta) <= m] summed downward from m: relatively accurate deep in
    the left tail, where the kernel keeps m < theta if theta > 0 (module notes)."""
    if theta == 0.0:
        return 1.0
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
# elements per array of one block of summed rows (rows x window columns):
# the kernel's working memory stays fixed, however large the grid
_BLOCK_ELEMENTS = 1 << 12


def _checked_grid(values, name: str) -> np.ndarray:
    """``values`` as a float64 array whose elements are all finite and >= 0;
    the first bad element is reported as ``_check_nonneg`` reports a scalar."""
    x = np.asarray(values, dtype=np.float64)
    # NaN fails both comparisons, as min() and max() propagate it
    if x.size and not (x.min() >= 0.0 and x.max() < math.inf):
        _check_nonneg(x[~(np.isfinite(x) & (x >= 0.0))][0], name)
    return x


def _walk_from_seed(theta_p: float, theta_c: float, shift: int, m: int,
                    p: float, q: float, cdf: float) -> tuple[int, float, float, float, float]:
    """The mixture loop of one row in ``math`` from its seeds at m while a step
    re-seeds from logs (a rising flank below _PMF_RESEED_FLOOR).  Returns the
    state (m, p, q, cdf, total) at the last m, past which neither recurrence
    re-seeds, as the products only grow; it never reaches the fence."""
    total = 0.0
    while True:
        total += p * cdf
        k = m + 1
        p_next = p * (theta_p / (k + shift))
        q_next = q * (theta_c / k)
        p_low = p_next < _PMF_RESEED_FLOOR and k + shift < theta_p
        q_low = q_next < _PMF_RESEED_FLOOR and k < theta_c
        if not (p_low or q_low):
            return m, p, q, cdf, total
        m = k
        p = _pois_pmf(k + shift, theta_p) if p_low else p_next
        q = _pois_pmf(k, theta_c) if q_low else q_next
        cdf = min(1.0, cdf + q)


def _running(op, first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """op.accumulate along each row of [first | rest]: the loop's running
    product or sum, continued from ``first``."""
    out = np.empty((rest.shape[0], rest.shape[1] + 1))
    out[:, 0] = first
    out[:, 1:] = rest
    return op.accumulate(out, axis=1, out=out)


def _finish_rows(state: np.ndarray, theta_p, theta_c, shift, fence, width: int) -> np.ndarray:
    """The rest of each row's loop from its state (columns m, p, q, cdf,
    total), as ``width`` steps of numpy accumulates that each run left to
    right: every element is the loop's own IEEE operation on its operands.
    Returns the row sums; in the summed domain every row stops by ``width``."""
    m, p, q, cdf, total = state.T
    k = m[:, None] + np.arange(1.0, width + 1.0)
    p_run = _running(np.multiply, p, theta_p[:, None] / (k + shift[:, None]))
    q_run = _running(np.multiply, q, theta_c[:, None] / k)
    # min(1, running sum) is the loop's clamp: once past 1 the sum stays past
    cdf_run = np.minimum(_running(np.add, cdf, q_run[:, 1:]), 1.0)
    terms = p_run[:, 1:] * cdf_run[:, 1:]
    totals = _running(np.add, total, terms)[:, 1:]
    stop = (k >= fence[:, None]) & (terms <= totals * _REL_EPS)
    return totals[np.arange(totals.shape[0]), stop.argmax(axis=1)]


def _mixture_sums(theta_p: np.ndarray, theta_c: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """sum_{m>=0} Pois(m+shift; theta_p) * P[Pois(theta_c) <= m], per row.

    shift=0 with (a^2/2, b^2/2) is Q1(a,b); shift=1 with the roles swapped
    is 1 - Q1(a,b).  Each row is the loop of the module notes, summed over a
    window from m_lo that stops at the first m >= fence whose term is below
    total * _REL_EPS.  Requires theta_p <= theta_c; theta_p may be 0.0.
    """
    peak = np.maximum(theta_p, np.sqrt(theta_p * theta_c))
    m_lo = np.maximum(0.0, np.trunc(peak - 10.0 * np.sqrt(peak + 1.0) - 20.0))
    fence = peak + 12.0 * np.sqrt(peak + 1.0) + 20.0

    # log-space seeds at m_lo, per row in math
    tp, tc, m = theta_p.tolist(), theta_c.tolist(), m_lo.astype(np.int64).tolist()
    p = np.array([_pois_pmf(k + sh, t) for k, sh, t in zip(m, shift.tolist(), tp)])
    q = np.array([_pois_pmf(k, t) for k, t in zip(m, tc)])
    cdf = np.array([_pois_cdf(k, t) for k, t in zip(m, tc)])
    state = np.column_stack([m_lo, p, q, cdf, p * cdf])

    # a row whose first recurrence step re-seeds walks in math until no step
    # does; numpy's IEEE * / < give the loop's own bits for that test
    k = m_lo + 1.0
    reseeds = ((p * (theta_p / (k + shift)) < _PMF_RESEED_FLOOR) & (k + shift < theta_p)) | (
        (q * (theta_c / k) < _PMF_RESEED_FLOOR) & (k < theta_c))
    for i in np.flatnonzero(reseeds).tolist():
        state[i] = _walk_from_seed(tp[i], tc[i], int(shift[i]), m[i], *state[i, 1:4].tolist())

    # blocks of rows of similar window width, at most _BLOCK_ELEMENTS per array;
    # the summed domain's widest window (~1900 steps) fits in one block
    need = np.ceil(fence - state[:, 0])  # >= 1: every state's m is below its fence
    left = np.argsort(need, kind="stable")
    need = need[left]
    lo = 0
    while lo < left.size:
        hi = lo + 1
        while hi < left.size and (hi + 1 - lo) * need[hi] <= _BLOCK_ELEMENTS:
            hi += 1
        rows = left[lo:hi]
        state[rows, 4] = _finish_rows(state[rows], theta_p[rows], theta_c[rows], shift[rows],
                                      fence[rows], int(need[hi - 1]))
        lo = hi
    return state[:, 4]


def marcum_q1_grid(a, b, side: int) -> np.ndarray:
    """Side ``side`` of the Marcum pair over the broadcast grid of ``a`` and
    ``b``: 0 gives Q1(a, b), 1 gives 1 - Q1(a, b).  The smaller side is
    summed, and is exactly 0.0 past the underflow cut-off; the larger side
    is 1.0 minus the smaller one, and is exactly 1.0 past the rounding
    cut-off without summing.  Every element carries the bits of evaluating
    its point on its own (see the module notes)."""
    if side not in (0, 1):
        raise ParameterError(f"side must be 0 (Q1) or 1 (1 - Q1), got {side!r}")
    a = _checked_grid(a, "a")
    b = _checked_grid(b, "b")
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    # the smaller side, summed directly: Q1 where b > a, else 1 - Q1
    smaller = (b > a) == (side == 0)
    out = np.where(smaller, 0.0, 1.0)  # b == 0, and past the side's cut-off
    for i in np.flatnonzero((a == 0.0) & (b != 0.0)):
        half_b2 = 0.5 * float(b[i]) * float(b[i])
        out[i] = math.exp(-half_b2) if side == 0 else -math.expm1(-half_b2)
    d = a - b
    with np.errstate(over="ignore"):
        gap = 0.5 * (d * d)
    cut_off = np.where(smaller, _MARCUM_UNDERFLOW_EXPONENT, _ROUNDING_EXPONENT)

    rows = np.flatnonzero((a != 0.0) & (b != 0.0) & (gap <= cut_off))
    if rows.size:
        ar, br = a[rows], b[rows]
        outside = np.maximum(ar, br) > _SUM_DOMAIN
        if outside.any():
            i = int(np.argmax(outside))
            raise ParameterError(
                f"a={float(ar[i])!r}, b={float(br[i])!r} needs the Marcum sum outside its "
                f"certified domain max(a, b) <= {_SUM_DOMAIN!r}")
        alpha, beta, up = 0.5 * ar * ar, 0.5 * br * br, br > ar
        # the sums are of positive terms; min() only absorbs last-ulp rounding
        total = np.minimum(1.0, _mixture_sums(np.where(up, alpha, beta),
                                              np.where(up, beta, alpha), np.where(up, 0, 1)))
        out[rows] = np.where(smaller[rows], total, 1.0 - total)
    return out.reshape(shape)


def _plain(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def marcum_q1(a, b):
    """Marcum Q-function of order 1: P(T > b) for T with density
    x exp(-(x^2+a^2)/2) I0(a x) on x >= 0; side 0 of ``marcum_q1_grid``.

    Target relative error <= 1e-10 for results down to ~1e-290, certified
    against the defining-integral quadrature oracle over the summed domain;
    smaller results sit in double precision's denormal territory and keep
    absolute accuracy only, with true values below ~1e-308 returned as 0.
    Without summation, for any finite a and b: exactly 0.0 where b > a and
    (a-b)^2/2 > 745.2, exactly 1.0 where b <= a and (a-b)^2/2 > 38.0, and
    closed forms on the axes.  Every other point is summed and must have
    max(a, b) <= 120, or ``ParameterError`` is raised.  Scalars give a
    float; arrays broadcast and give ``marcum_q1_grid``'s array.
    """
    return _plain(marcum_q1_grid(a, b, 0))


def marcum_q1c(a, b):
    """Complement 1 - Q1(a, b) = P(T <= b), side 1 of ``marcum_q1_grid``:
    relatively accurate in its own lower tail (down to ~1e-290, as
    ``marcum_q1``), not 1 minus a rounded Q1.  The cut-offs mirror
    ``marcum_q1``'s: exactly 0.0 where b < a and (a-b)^2/2 > 745.2, exactly
    1.0 where b > a and (a-b)^2/2 > 38.0.  Scalars give a float; arrays
    broadcast as in ``marcum_q1``."""
    return _plain(marcum_q1_grid(a, b, 1))

