"""Special-function numerics against their defining-integral oracles.

The oracle side (adaptive quadrature, scipy's i0e) is independent of the
series code under test; grid tolerances follow the certification targets.
Frozen constants carry the oracle value they were computed from.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_auth import special
from backscatter_auth.errors import ParameterError
from backscatter_auth.rng import RngHandle, sample_complex_normal_array
from backscatter_auth.special import (
    RiceParams,
    bessel_i0,
    bessel_i0_scaled,
    marcum_q1,
    marcum_q1c,
    rayleigh_tail,
    rice_cdf,
)
from backscatter_auth.validation import (
    bessel_i0_oracle,
    bessel_i0_scaled_oracle,
    marcum_q1_oracle,
    marcum_q1c_oracle,
)

I0_RTOL = 1e-12        # certified domain [0, 700]
I0_SCALED_RTOL = 1e-10
MARCUM_RTOL = 1e-10    # vs quadrature oracle
EDGE_RTOL = 1e-12      # closed-form axes


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_unit_argument_vs_oracle(self):
        # oracle: (1/pi) * integral_0^pi exp(cos t) dt = 1.2660658777520082
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520082, rel=I0_RTOL)
        assert bessel_i0(1.0) == pytest.approx(bessel_i0_oracle(1.0), rel=I0_RTOL)

    def test_scaled_at_100_vs_oracle(self):
        # oracle: 0.03994437929909674
        assert bessel_i0_scaled(100.0) == pytest.approx(
            bessel_i0_scaled_oracle(100.0), rel=I0_SCALED_RTOL)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 5.0, 20.0, 39.9, 40.1, 80.0, 250.0, 700.0])
    def test_certified_domain_vs_oracle(self, x):
        assert bessel_i0_scaled(x) == pytest.approx(bessel_i0_scaled_oracle(x), rel=I0_RTOL)
        if x <= 700.0:
            assert bessel_i0(x) == pytest.approx(math.exp(x) * bessel_i0_scaled_oracle(x),
                                                 rel=I0_RTOL)

    def test_scaled_finite_far_beyond_overflow(self):
        assert 0.0 < bessel_i0_scaled(1e6) < 1.0

    def test_overflow_range_raises(self):
        with pytest.raises(ParameterError):
            bessel_i0(800.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ParameterError):
            bessel_i0(bad)
        with pytest.raises(ParameterError):
            bessel_i0_scaled(bad)


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


class TestMarcumCutoff:
    @pytest.fixture
    def no_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Marcum mixture summed past the underflow cut-off")

        monkeypatch.setattr(special, "_marcum_mixture_sum", refuse)

    @pytest.mark.parametrize("a,b,q", [(3577.7, 3.03, 1.0), (57.0, 3.03, 1.0),
                                       (1.0, 45.0, 0.0), (0.5, 39.2, 0.0)])
    def test_exact_and_unsummed_past_the_cut_off(self, no_sum, a, b, q):
        assert marcum_q1(a, b) == q
        assert marcum_q1c(a, b) == 1.0 - q
        # the smaller side's quadrature underflows to zero as well
        smaller_oracle = marcum_q1c_oracle if q == 1.0 else marcum_q1_oracle
        assert smaller_oracle(a, b) == 0.0

    @pytest.mark.parametrize("a,b", [(40.0, 1.5), (1.0, 39.5)])
    def test_just_inside_the_cut_off_still_sums(self, monkeypatch, a, b):
        assert abs(a - b) == 38.5
        calls = []
        summed = special._marcum_mixture_sum

        def counted(*args):
            calls.append(args)
            return summed(*args)

        monkeypatch.setattr(special, "_marcum_mixture_sum", counted)
        marcum_q1(a, b)
        marcum_q1c(a, b)
        assert len(calls) == 2


class TestRayleighTail:
    def test_full_support(self):
        assert rayleigh_tail(0.0, 2.7) == 1.0

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 4.0])
    def test_median_inversion(self, sigma):
        assert rayleigh_tail(sigma * math.sqrt(2.0 * math.log(2.0)), sigma) == pytest.approx(
            0.5, rel=1e-14)

    def test_centile_threshold(self):
        # threshold designed for a 1% tail at unit complex variance
        assert rayleigh_tail(2.146, math.sqrt(0.5)) == pytest.approx(0.01, abs=1e-3)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            rayleigh_tail(1.0, 0.0)
        with pytest.raises(ParameterError):
            rayleigh_tail(-1.0, 1.0)


class TestRiceCdf:
    def test_at_zero(self):
        assert rice_cdf(0.0, RiceParams(nu=1.0, sigma=0.5)) == 0.0

    def test_rayleigh_reduction_matches_tail(self):
        # same closed form on both sides; agreement must be essentially exact
        for sigma in (0.25, 1.0, 3.0):
            for x in np.linspace(0.0, 8.0, 33):
                lhs = rice_cdf(float(x), RiceParams(nu=0.0, sigma=sigma))
                rhs = 1.0 - rayleigh_tail(float(x), sigma)
                assert lhs == pytest.approx(rhs, abs=EDGE_RTOL)

    def test_nondecreasing_and_limits(self):
        params = RiceParams(nu=1.5, sigma=0.7)
        xs = np.linspace(0.0, 12.0, 200)
        vals = [rice_cdf(float(x), params) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # |CN(1, 2*0.5^2)| has per-component scale 0.5
        n = 1_000_000
        rng = RngHandle(20_240_611)
        draws = sample_complex_normal_array(rng, 1.0 + 0j, 2 * 0.5**2, n)
        p_hat = float(np.mean(np.abs(draws) <= 1.5))
        p = rice_cdf(1.5, RiceParams(nu=1.0, sigma=0.5))
        assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            RiceParams(nu=-0.1, sigma=1.0)
        with pytest.raises(ParameterError):
            RiceParams(nu=1.0, sigma=0.0)

    def test_against_noncentral_chi_square(self):
        # independent cross-check: (T/sigma)^2 is noncentral chi-square with
        # 2 dof and noncentrality (nu/sigma)^2
        from scipy import stats

        for nu, sigma, x in [(0.5, 1.0, 1.2), (1.0, 0.5, 1.5), (3.0, 0.25, 2.9),
                             (0.0, 2.0, 1.0), (8.0, 1.0, 6.5)]:
            ref = float(stats.ncx2.cdf((x / sigma) ** 2, 2, (nu / sigma) ** 2))
            assert rice_cdf(x, RiceParams(nu=nu, sigma=sigma)) == pytest.approx(
                ref, rel=1e-9, abs=1e-13)


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
