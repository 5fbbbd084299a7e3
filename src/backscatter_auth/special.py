"""Special-function numerics: the Marcum Q1 pair (Q1, 1 - Q1).

Design notes
------------
``marcum_q1`` / ``marcum_q1c`` / ``marcum_q1_grid``
    The first two read one side of the grid kernel's pair ``(Q1, 1 - Q1)``;
    a scalar point is its one-point case.  Poisson-mixture form of the
    noncentral chi-square (2 dof) tail:

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
    point has bounded cost, however strong the attacker.  A summed point
    must lie in the domain max(a, b) <= ``_SUM_DOMAIN`` (120), which
    ``validation`` certifies against quadrature; any other summed point
    raises ``ParameterError`` before anything is summed.

    Grid kernel: the axes and the cut-off are masks over the whole grid
    (the cut-off squares a - b with one correctly rounded multiply; a libm
    pow could differ from it only within an ulp of the cut-off, where the
    summed smaller side is 0.0 as well).  Each remaining point is a row of
    the loop "term = p * cdf, total += term, stop at the first m >= fence
    with term <= total * 1e-17, advance p and q by one recurrence step,
    cdf = min(1, cdf + q)".  Its seeds (``_pois_pmf``/``_pois_cdf``: exp,
    log, lgamma) and the short prefix of steps that re-seed below 1e-290
    run in ``math``: numpy's exp and log need not round as libm's do.
    Past that prefix no step re-seeds again, and the rest of the row is
    numpy ``multiply.accumulate`` (the two recurrences) and
    ``add.accumulate`` (the cdf, clamped after the fact by min(1, .), and
    the total).  An accumulate runs strictly left to right, so each element
    is the loop's own IEEE operation on the loop's operands, and the window
    bounds are the loop's correctly rounded + * / sqrt trunc max: every
    output carries the bits of the scalar loop.  Rows run in blocks of at
    most ``_BLOCK_ELEMENTS`` per array, each block once: inside the domain
    every row stops within its window (~1900 steps at the widest).  On the
    detector's 800-point strong-attacker sweep this is one call, not 800.

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
                    fence: float) -> tuple[bool, int, float, float, float, float]:
    """The mixture loop of one row in ``math``: seeded in log space at m, and
    walked while a recurrence step re-seeds from logs (a rising flank below
    _PMF_RESEED_FLOOR).  Returns (stopped, m, p, q, cdf, total): the row's sum
    if it stopped, else the state at the last m, after which neither
    recurrence ever re-seeds (on a rising flank the products only grow)."""
    p = _pois_pmf(m + shift, theta_p)
    q = _pois_pmf(m, theta_c)
    cdf = _pois_cdf(m, theta_c)
    total = 0.0
    while True:
        total += p * cdf
        if m >= fence and p * cdf <= total * _REL_EPS:
            return True, m, p, q, cdf, total
        k = m + 1
        p_next = p * (theta_p / (k + shift))
        q_next = q * (theta_c / k)
        p_low = p_next < _PMF_RESEED_FLOOR and k + shift < theta_p
        q_low = q_next < _PMF_RESEED_FLOOR and k < theta_c
        if not (p_low or q_low):
            return False, m, p, q, cdf, total
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
    total * _REL_EPS.  Requires theta_p > 0.
    """
    peak = np.maximum(theta_p, np.sqrt(theta_p * theta_c))
    m_lo = np.maximum(0.0, np.trunc(peak - 10.0 * np.sqrt(peak + 1.0) - 20.0))
    fence = np.maximum(
        theta_p + 12.0 * np.sqrt(theta_p + 1.0),
        peak + 12.0 * np.sqrt(peak + 1.0),
    ) + 20.0

    walks = [_walk_from_seed(tp, tc, int(sh), int(m), f) for tp, tc, sh, m, f in zip(
        theta_p.tolist(), theta_c.tolist(), shift.tolist(), m_lo.tolist(), fence.tolist())]
    state = np.array([walk[1:] for walk in walks])
    sums = state[:, 4].copy()

    # blocks of rows of similar window width, at most _BLOCK_ELEMENTS per array;
    # the summed domain's widest window (~1900 steps) fits in one block
    left = np.flatnonzero([not walk[0] for walk in walks])
    need = np.maximum(np.ceil(fence[left] - state[left, 0]), 1.0)
    left = left[np.argsort(need, kind="stable")]
    need = np.sort(need)
    lo = 0
    while lo < left.size:
        hi = lo + 1
        while hi < left.size and (hi + 1 - lo) * need[hi] <= _BLOCK_ELEMENTS:
            hi += 1
        rows = left[lo:hi]
        sums[rows] = _finish_rows(state[rows], theta_p[rows], theta_c[rows], shift[rows],
                                  fence[rows], int(need[hi - 1]))
        lo = hi
    return sums


def marcum_q1_grid(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(Q1(a, b), 1 - Q1(a, b)) over the broadcast grid of ``a`` and ``b``,
    the smaller side summed and the other its complement; the smaller side
    is exactly 0.0 past the underflow cut-off.  Every element carries the
    bits of evaluating its point on its own (see the module notes)."""
    a = _checked_grid(a, "a")
    b = _checked_grid(b, "b")
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    q = np.ones(a.size)  # b == 0, and b < a past the cut-off
    qc = np.zeros(a.size)

    rest = b != 0.0
    for i in np.flatnonzero(rest & (a == 0.0)):
        half_b2 = 0.5 * float(b[i]) * float(b[i])
        q[i], qc[i] = math.exp(-half_b2), -math.expm1(-half_b2)
    rest &= a != 0.0
    above = b > a
    d = a - b
    with np.errstate(over="ignore"):
        far = 0.5 * (d * d) > _MARCUM_UNDERFLOW_EXPONENT
    q[rest & far & above] = 0.0
    qc[rest & far & above] = 1.0

    rows = np.flatnonzero(rest & ~far)
    if rows.size:
        ar, br, up = a[rows], b[rows], above[rows]
        outside = np.maximum(ar, br) > _SUM_DOMAIN
        if outside.any():
            i = int(np.argmax(outside))
            raise ParameterError(
                f"a={float(ar[i])!r}, b={float(br[i])!r} needs the Marcum sum outside its "
                f"certified domain max(a, b) <= {_SUM_DOMAIN!r}")
        alpha, beta = 0.5 * ar * ar, 0.5 * br * br
        # the sums are of positive terms; min() only absorbs last-ulp rounding
        total = np.minimum(1.0, _mixture_sums(np.where(up, alpha, beta),
                                              np.where(up, beta, alpha), np.where(up, 0, 1)))
        q[rows] = np.where(up, total, 1.0 - total)
        qc[rows] = np.where(up, 1.0 - total, total)
    return q.reshape(shape), qc.reshape(shape)


def _plain(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def marcum_q1(a, b):
    """Marcum Q-function of order 1: P(T > b) for T with density
    x exp(-(x^2+a^2)/2) I0(a x) on x >= 0.

    Target relative error <= 1e-10 for results down to ~1e-290, certified
    against the defining-integral quadrature oracle over the summed domain;
    smaller results sit in double precision's denormal territory and keep
    absolute accuracy only, with true values below ~1e-308 returned as 0.
    Where (a-b)^2/2 > 745.2 the result is exactly 0.0 (b > a) or 1.0
    (b < a) without summation, and the axes are closed forms, for any
    finite a and b.  Every other point is summed and must have
    max(a, b) <= 120, or ``ParameterError`` is raised.  Scalars give a
    float; arrays broadcast and give ``marcum_q1_grid``'s array.
    """
    return _plain(marcum_q1_grid(a, b)[0])


def marcum_q1c(a, b):
    """Complement 1 - Q1(a, b) = P(T <= b), relatively accurate in its own
    lower tail (down to ~1e-290, as ``marcum_q1``), not 1 minus a rounded Q1.
    Scalars give a float; arrays broadcast as in ``marcum_q1``."""
    return _plain(marcum_q1_grid(a, b)[1])

