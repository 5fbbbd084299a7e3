"""The Marcum Q1 pair against its defining-integral oracles.

The oracle side (adaptive quadrature of the Rice density, with scipy's
i0e) is independent of the Poisson-mixture sums under test; grid
tolerances follow the certification targets.  Frozen constants carry the
oracle value they were computed from.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_auth import special
from backscatter_auth.errors import ParameterError
from backscatter_auth.rng import RngHandle, sample_complex_normal_array
from backscatter_auth.detection import design_threshold
from backscatter_auth.experiments import ExperimentConfig
from backscatter_auth.special import (
    _MARCUM_UNDERFLOW_EXPONENT,
    _PMF_RESEED_FLOOR,
    _REL_EPS,
    _check_nonneg,
    _pois_cdf,
    _pois_pmf,
    marcum_q1,
    marcum_q1_grid,
    marcum_q1c,
)
from backscatter_auth.validation import (
    marcum_q1_oracle,
    marcum_q1c_oracle,
)

MARCUM_RTOL = 1e-10    # vs quadrature oracle
EDGE_RTOL = 1e-12      # closed-form axes


# The per-point Marcum loop that the grid kernel replaced, verbatim: the
# bit-for-bit reference of TestMarcumGrid.  It shares only the log-space
# seeds (_pois_pmf, _pois_cdf) with the kernel.
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


class TestMarcumQ1:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 5.0, 50.0])
    def test_full_support_edge(self, a):
        assert marcum_q1(a, 0.0) == 1.0

    @pytest.mark.parametrize("b", [0.25, 1.0, 3.0, 10.0])
    def test_rayleigh_edge(self, b):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=EDGE_RTOL, abs=0.0)

    def test_rayleigh_edge_frozen(self):
        # exp(-0.5) = 0.6065306597126334
        assert marcum_q1(0.0, 1.0) == pytest.approx(0.6065306597126334, rel=EDGE_RTOL)

    def test_unit_point_vs_oracle(self):
        # oracle: 0.7328798037968202
        assert marcum_q1(1.0, 1.0) == pytest.approx(marcum_q1_oracle(1.0, 1.0),
                                                    rel=MARCUM_RTOL)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 4.0), (7.0, 2.0), (9.75, 9.5)])
    def test_spot_values_vs_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_oracle(a, b), rel=MARCUM_RTOL, abs=0.0)

    @pytest.mark.parametrize("a,b", [(20.0, 50.0), (50.0, 20.0), (50.0, 50.0), (35.0, 40.0)])
    def test_large_arguments_vs_oracle(self, a, b):
        # far outside the dense grid; covers the log-domain windowed summation
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_oracle(a, b), rel=1e-9, abs=0.0)

    def test_deep_tail_recurrence_seeding(self):
        # regression: the pmf recurrence once inherited the garbage relative
        # error of a denormal exp() seed, inflating this value by ~53%;
        # reference from an 80-digit evaluation of the mixture series
        assert marcum_q1(12.63843389762282, 47.39492897379063) == pytest.approx(
            1.0711753108209570e-264, rel=1e-12, abs=0.0)

    def test_randomized_stress_vs_oracle(self):
        rng = np.random.default_rng(20_250_101)
        pairs = list(zip(rng.uniform(0.0, 50.0, 60), rng.uniform(0.0, 50.0, 60)))
        pairs += [(a, a + d) for a in rng.uniform(0.5, 49.0, 10) for d in (-0.01, 0.0, 0.01)]
        worst = 0.0
        for a, b in pairs:
            ref = marcum_q1_oracle(float(a), float(b)) if b > 0 else 1.0
            if ref < 1e-280:  # denormal territory keeps absolute accuracy only
                continue
            worst = max(worst, abs(marcum_q1(float(a), float(b)) - ref) / ref)
        assert worst <= MARCUM_RTOL

    def test_oracle_grid_coarse(self):
        # the full step-0.25 grid is acceptance criterion territory
        grid = np.arange(0.0, 10.5, 0.5)
        worst = 0.0
        for a in grid:
            for b in grid[1:]:
                ref = marcum_q1_oracle(float(a), float(b))
                worst = max(worst, abs(marcum_q1(float(a), float(b)) - ref) / ref)
        assert worst <= MARCUM_RTOL

    def test_monotonicity_grid(self):
        grid = np.arange(0.0, 10.5, 0.5)
        for a in grid:
            vals = [marcum_q1(float(a), float(b)) for b in grid]
            assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))
        for b in grid:
            vals = [marcum_q1(float(a), float(b)) for a in grid]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a,b", [(-0.1, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_arguments(self, a, b):
        with pytest.raises(ParameterError):
            marcum_q1(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_bounded_and_monotone_in_b(self, a, b):
        q = marcum_q1(a, b)
        assert 0.0 <= q <= 1.0
        assert marcum_q1(a, b + 0.5) <= q + 1e-14


class TestMarcumQ1c:
    def test_complements_q1(self):
        grid = np.arange(0.0, 10.5, 0.5)
        for a in grid:
            for b in grid:
                total = marcum_q1(float(a), float(b)) + marcum_q1c(float(a), float(b))
                assert total == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(3.0, 0.5), (12.0, 11.0), (2.0, 3.0), (20.0, 2.0),
                                     (40.0, 10.0)])
    def test_spot_values_vs_oracle(self, a, b):
        assert marcum_q1c(a, b) == pytest.approx(marcum_q1c_oracle(a, b), rel=MARCUM_RTOL, abs=0.0)

    def test_lower_tail_kept_where_one_minus_q1_reads_zero(self):
        # oracle: 1.0975243136280260e-89
        assert 1.0 - marcum_q1(20.0, 0.1) == 0.0
        assert marcum_q1c(20.0, 0.1) == pytest.approx(1.0975243136280260e-89,
                                                      rel=MARCUM_RTOL, abs=0.0)

    def test_rayleigh_edge_small_b(self):
        # 1 - exp(-b^2/2) = b^2/2 - b^4/8 + ... at b = 1e-5
        assert marcum_q1c(0.0, 1e-5) == pytest.approx(5e-11 - 1.25e-21, rel=EDGE_RTOL, abs=0.0)

    @pytest.mark.parametrize("a,b", [(-0.1, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_arguments(self, a, b):
        with pytest.raises(ParameterError):
            marcum_q1c(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    def test_smaller_side_below_the_cut_off_bound(self, a, b):
        # the bound the underflow cut-off rests on: min(Q1, 1 - Q1) <= exp(-(a-b)^2/2)
        smaller = marcum_q1(a, b) if b > a else marcum_q1c(a, b)
        assert smaller <= math.exp(-0.5 * (a - b) ** 2) * (1.0 + 1e-12)


@pytest.fixture
def no_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("Marcum mixture summed where no point may be")

    monkeypatch.setattr(special, "_mixture_sums", refuse)


class TestMarcumCutoff:
    @pytest.mark.parametrize("a,b,q", [(3577.7, 3.03, 1.0), (57.0, 3.03, 1.0),
                                       (1.0, 45.0, 0.0), (0.5, 39.2, 0.0)])
    def test_exact_and_unsummed_past_the_cut_off(self, no_sum, a, b, q):
        assert marcum_q1(a, b) == q
        assert marcum_q1c(a, b) == 1.0 - q
        # the smaller side's quadrature underflows to zero as well
        smaller_oracle = marcum_q1c_oracle if q == 1.0 else marcum_q1_oracle
        assert smaller_oracle(a, b) == 0.0

    def test_a_grid_past_the_cut_off_is_unsummed(self, no_sum):
        a, b = np.array([57.0, 3577.7])[:, None], np.array([0.14, 3.03])
        q, qc = marcum_q1_grid(a, b, 0), marcum_q1_grid(a, b, 1)
        assert (q == 1.0).all() and (qc == 0.0).all()

    @pytest.mark.parametrize("a,b", [(40.0, 1.5), (1.0, 39.5)])
    def test_just_inside_the_cut_off_still_sums(self, monkeypatch, a, b):
        # inside the underflow cut-off the smaller side is summed; the larger
        # side is past the rounding cut-off, exactly 1.0 and unsummed
        assert abs(a - b) == 38.5
        calls = []
        summed = special._mixture_sums

        def counted(*args):
            calls.append(args)
            return summed(*args)

        monkeypatch.setattr(special, "_mixture_sums", counted)
        smaller, larger = (marcum_q1, marcum_q1c) if b > a else (marcum_q1c, marcum_q1)
        smaller(a, b)
        assert len(calls) == 1
        assert larger(a, b) == 1.0
        assert len(calls) == 1


def _reference_bits(a, b) -> list[tuple[str, str]]:
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return [tuple(v.hex() for v in _marcum_pair(x, y))
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]


def _kernel_bits(a, b) -> list[tuple[str, str]]:
    q, qc = marcum_q1_grid(a, b, 0), marcum_q1_grid(a, b, 1)
    return [(x.hex(), y.hex()) for x, y in zip(q.ravel().tolist(), qc.ravel().tolist())]


class TestMarcumGrid:
    """The grid kernel against the per-point loop it replaced, compared bit
    for bit (float.hex, so even the sign of a zero counts)."""

    def test_half_step_grid(self):
        a = np.arange(0.0, 80.25, 0.5)[:, None]
        b = np.arange(0.0, 40.25, 0.5)
        assert _kernel_bits(a, b) == _reference_bits(a, b)

    def test_random_pairs(self):
        rng = np.random.default_rng(20_261_018)
        a, b = rng.uniform(0.0, 80.0, 400), rng.uniform(0.0, 80.0, 400)
        assert _kernel_bits(a, b) == _reference_bits(a, b)

    # 38.6 straddles the underflow cut-off, sqrt(74)..sqrt(80) the rounding
    # cut-off's band (a-b)^2/2 in [37, 40]
    @pytest.mark.parametrize("gap", [0.0, 1e-3, 20.0, 38.6, *(
        math.sqrt(2.0 * e) for e in (37.0, 37.9, 38.0, 38.1, 40.0))])
    def test_near_the_diagonal_and_the_cut_off(self, gap):
        a = np.linspace(0.01, 77.0, 90)
        for b in (a + gap, np.maximum(a - gap, 0.0)):
            assert _kernel_bits(a, b) == _reference_bits(a, b)

    def test_both_sides_and_both_axes_in_one_call(self):
        # 81.4 and 120 add the summed domain's corners (120, 120), (120, 81.4)
        # and (81.4, 120), where the window is widest
        a = np.array([0.0, 0.5, 3.0, 20.0, 40.0, 81.4, 120.0])[:, None]
        b = np.array([0.0, 0.25, 3.0, 20.5, 45.0, 60.0, 81.4, 120.0])
        assert marcum_q1_grid(a, b, 0).shape == (7, 8)
        assert _kernel_bits(a, b) == _reference_bits(a, b)

    def test_one_point_is_a_float(self):
        assert type(marcum_q1(3.0, 2.0)) is float and type(marcum_q1c(3.0, 2.0)) is float
        assert (marcum_q1(3.0, 2.0), marcum_q1c(3.0, 2.0)) == _marcum_pair(3.0, 2.0)

    def test_reseed_prefix_rows(self, monkeypatch):
        # a ~ 40, b <= 3: Pois(m; a^2/2) starts far below 1e-290 at m_lo = 0,
        # so the walk re-seeds from logs for ~30 steps before numpy takes over
        a = np.linspace(38.0, 42.0, 9)[:, None]
        b = np.linspace(0.05, 3.0, 12)
        seeds = []
        pmf = special._pois_pmf
        monkeypatch.setattr(special, "_pois_pmf", lambda k, theta: seeds.append(k) or pmf(k, theta))
        kernel = _kernel_bits(a, b)
        monkeypatch.undo()
        assert len(seeds) > 10 * a.size * b.size  # two plain seeds per row otherwise
        assert kernel == _reference_bits(a, b)

    def test_strong_attacker_points(self):
        # the analytic-strong-attacker sweep: 30 dB, n_train 64, 16 distances
        pfa = np.linspace(0.01, 0.99, 50)
        v = ExperimentConfig(sinr_db=30.0, n_train=64, mu_mag=1.0, pfa_grid=pfa,
                             trials=0, seed=1).est_variance
        s = math.sqrt(v / 2.0)
        a = np.array([10.0 ** (-2.0 + 3.0 * k / 15.0) for k in range(16)])[:, None] / s
        b = np.array([design_threshold(float(p), v) for p in pfa]) / s
        assert _kernel_bits(a, b) == _reference_bits(a, b)

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_rejects_bad_elements_as_one_point_does(self, name, bad, shape):
        args = {"a": np.array([1.0, 2.0]), "b": 1.5}
        args[name] = bad if shape == "scalar" else np.array([[1.0, 2.0], [bad, 3.0]])
        with pytest.raises(ParameterError) as point:
            _check_nonneg(bad, name)
        with pytest.raises(ParameterError, match=re.escape(str(point.value))):
            marcum_q1_grid(args["a"], args["b"], 0)

    def test_no_runtime_warnings(self):
        # m_lo = 0 rows, both axes, far points and a squared gap that overflows
        a = np.array([0.0, 1e-3, 0.5, 3.0, 60.0, 1e300])[:, None]
        b = np.array([0.0, 1e-3, 0.5, 2.0, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, qc = marcum_q1_grid(a, b, 0), marcum_q1_grid(a, b, 1)
            marcum_q1_grid(b, a, 0)
            marcum_q1_grid(b, a, 1)
        assert q[-1].tolist() == [1.0] * 5 and qc[-1].tolist() == [0.0] * 5

    @pytest.mark.parametrize("a,b", [(1e200, 1e200), (1e100, 1e100), (1.2e154, 1.2e154),
                                     (1e6, 1e6), (120.5, 100.0)])
    def test_summed_point_outside_the_domain_refused(self, no_sum, a, b):
        # refused before the in-domain point (1, 1) of the same call is summed;
        # b <= a, so 1 - Q1 is the summed side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=re.escape(
                    f"a={a!r}, b={b!r} needs the Marcum sum outside its certified "
                    f"domain max(a, b) <= {special._SUM_DOMAIN!r}")):
                marcum_q1_grid(np.array([1.0, a]), np.array([1.0, b]), 1)

    def test_larger_side_past_the_rounding_cut_off_needs_no_domain(self, no_sum):
        # (a-b)^2/2 = 210.125: 1 - Q1 would need the sum outside the domain,
        # but Q1 is exactly 1.0 whatever it holds
        assert marcum_q1(120.5, 100.0) == 1.0 and marcum_q1c(100.0, 120.5) == 1.0

    @pytest.mark.parametrize("side", [-1, 2, None])
    def test_rejects_a_side_other_than_0_or_1(self, side):
        with pytest.raises(ParameterError, match="side must be 0"):
            marcum_q1_grid(1.0, 1.0, side)


# The bound on how far a Marcum output moves, in ulps, when every libm-derived
# seed carries a one-ulp relative error: analytic outputs on another libm
# agree with this one's to within it (README "Reproducibility").
LIBM_ULP_BOUND = 128
# the detector's reach: b = sqrt(-2 ln pfa) <= 38.6 for any double pfa, and a
# summed point then has a <= 77.2 (module notes of special); the grid is a
# half-step of a 155 x 78 grid
_REACH_A = np.linspace(0.0, 77.2, 78)[:, None]
_REACH_B = np.linspace(0.0, 38.6, 40)[None, :]


def _ulps_apart(x: np.ndarray, y: np.ndarray) -> int:
    # nonnegative doubles order as their bit patterns
    return int(np.abs(x.view(np.int64) - y.view(np.int64)).max())


@pytest.fixture(scope="module")
def reach_sides():
    return [marcum_q1_grid(_REACH_A, _REACH_B, side) for side in (0, 1)]


class TestLibmConditioning:
    """The analytic outputs are well conditioned in their libm-derived seeds
    (``_pois_pmf``, ``_pois_cdf``: exp, log, lgamma), so a libm that rounds
    them differently moves both Marcum sides by a bounded number of ulps."""

    @staticmethod
    def _perturbed_sides(monkeypatch, factor):
        # _pois_cdf sums from the patched _pois_pmf, so its seed carries the
        # factor twice: up to two ulps
        pmf, cdf = special._pois_pmf, special._pois_cdf
        monkeypatch.setattr(special, "_pois_pmf", lambda k, theta: pmf(k, theta) * factor)
        monkeypatch.setattr(special, "_pois_cdf", lambda m, theta: cdf(m, theta) * factor)
        return [marcum_q1_grid(_REACH_A, _REACH_B, side) for side in (0, 1)]

    @pytest.mark.parametrize("factor", [1.0 + 2.0**-52, 1.0 - 2.0**-52, 1.0 - 2.0**-53],
                             ids=["up_2^-52", "down_2^-52", "down_2^-53"])
    def test_one_ulp_seeds_move_outputs_by_at_most_the_bound(self, monkeypatch, reach_sides,
                                                              factor):
        perturbed = self._perturbed_sides(monkeypatch, factor)
        for side in (0, 1):
            assert _ulps_apart(reach_sides[side], perturbed[side]) <= LIBM_ULP_BOUND

    def test_bound_detects_a_coarse_seed_error(self, monkeypatch, reach_sides):
        # power: a 2^-20 relative error in the seeds exceeds the bound
        perturbed = self._perturbed_sides(monkeypatch, 1.0 + 2.0**-20)
        for side in (0, 1):
            assert _ulps_apart(reach_sides[side], perturbed[side]) > LIBM_ULP_BOUND


class TestRiceCdf:
    def test_at_zero(self):
        # Rice(nu=1, sigma=0.5) cdf at 0 is 1 - Q1(nu/sigma, 0/sigma), exactly 0
        assert marcum_q1c(1.0 / 0.5, 0.0 / 0.5) == 0.0


class TestSamplingAnalyticAgreement:
    @pytest.mark.parametrize("mean,var,delta", [
        (0.0 + 0.0j, 1.0, 1.0),
        (1.0 + 1.0j, 0.5, 2.0),
        (2.0 + 0.0j, 2.0, 1.5),
    ])
    def test_exceedance_matches_marcum(self, mean, var, delta):
        n = 1_000_000
        rng = RngHandle(515_151)
        draws = sample_complex_normal_array(rng, mean, var, n)
        s = math.sqrt(var / 2.0)
        p = marcum_q1(abs(mean) / s, delta / s)
        p_hat = float(np.mean(np.abs(draws) > delta))
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
