"""Threshold design, the accept/reject rule, and closed-form error rates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_auth.detection import (
    AuthDecision,
    analytic_pd,
    analytic_pfa,
    analytic_pmd,
    authenticate,
    design_threshold,
    fingerprint_distance,
)
from backscatter_auth.errors import ParameterError
from backscatter_auth.estimation import FingerprintEstimate
from backscatter_auth.rng import RngHandle, sample_complex_normal_array
from backscatter_auth.validation import marcum_q1c_oracle

ROUNDTRIP_RTOL = 1e-12


class TestDesignThreshold:
    def test_near_one_target_gives_near_zero_threshold(self):
        assert design_threshold(1.0 - 1e-12, 1.0) < 2e-6

    def test_frozen_value(self):
        # sqrt(-ln 0.01) = 2.145966026289347
        assert design_threshold(0.01, 1.0) == pytest.approx(2.145966026289347, rel=1e-15)

    def test_round_trip(self):
        delta = design_threshold(0.1, 0.04)
        assert analytic_pfa(delta, 0.04) == pytest.approx(0.1, rel=ROUNDTRIP_RTOL)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_bad_target(self, bad):
        with pytest.raises(ParameterError):
            design_threshold(bad, 1.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(ParameterError):
            design_threshold(0.1, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-4, 0.5), st.floats(0.01, 10.0))
    def test_round_trip_property(self, p, v):
        assert analytic_pfa(design_threshold(p, v), v) == pytest.approx(p, rel=ROUNDTRIP_RTOL)


class TestAnalyticPfa:
    def test_zero_threshold(self):
        assert analytic_pfa(0.0, 3.0) == 1.0

    @pytest.mark.parametrize("v", [0.04, 1.0, 9.0])
    def test_half_point(self, v):
        assert analytic_pfa(math.sqrt(math.log(2.0) * v), v) == pytest.approx(0.5, rel=1e-14)

    def test_monte_carlo_oracle(self):
        n = 1_000_000
        v = 0.31622776601683794  # SINR 5 dB, unit-energy training
        eps = sample_complex_normal_array(RngHandle(808), 0j, v, n)
        stats = np.abs(eps)
        for delta in (0.2, 0.5, 0.853, 1.2):
            p = analytic_pfa(delta, v)
            p_hat = float(np.mean(stats > delta))
            assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_centile_threshold(self):
        # threshold designed for a 1% tail at unit complex variance
        assert analytic_pfa(2.146, 1.0) == pytest.approx(0.01, abs=1e-3)

    @pytest.mark.parametrize("delta,v", [
        (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, -1.0),
    ])
    def test_rejects_bad_arguments(self, delta, v):
        with pytest.raises(ParameterError):
            analytic_pfa(delta, v)


class TestSubnormalVariance:
    V = 5e-324  # sqrt(v/2) rounds to 0.0

    def test_analytic_rates_reject_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rate, args in ((analytic_pfa, (1.0,)), (analytic_pd, (1.0, 1.0)),
                               (analytic_pmd, (1.0, 1.0))):
                with pytest.raises(ParameterError, match="est_variance"):
                    rate(*args, self.V)

    def test_threshold_design_accepts_it(self):
        assert 0.0 < design_threshold(0.01, self.V) < 1e-161


class TestAnalyticPmd:
    def test_zero_distance_collapses_to_complement_of_pfa(self):
        for pfa in (0.01, 0.1, 0.5):
            delta = design_threshold(pfa, 0.3)
            assert analytic_pmd(0.0, delta, 0.3) == pytest.approx(1.0 - pfa, rel=1e-12)

    def test_zero_threshold_rejects_everything(self):
        assert analytic_pmd(1.0, 0.0, 0.5) == 0.0

    def test_rice_monte_carlo_oracle(self):
        # |CN(1, 0.5)| is Rice with per-component scale sqrt(0.5/2) = 0.5
        n = 1_000_000
        draws = sample_complex_normal_array(RngHandle(20_240_611), 1.0 + 0j, 0.5, n)
        p_hat = float(np.mean(np.abs(draws) <= 1.5))
        p = analytic_pmd(1.0, 1.5, 0.5)
        assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_against_noncentral_chi_square(self):
        # independent cross-check: (T/s)^2 is noncentral chi-square with
        # 2 dof and noncentrality (mu/s)^2, s = sqrt(v/2)
        from scipy import stats

        for mu, s, delta in [(0.5, 1.0, 1.2), (1.0, 0.5, 1.5), (3.0, 0.25, 2.9),
                             (0.0, 2.0, 1.0), (8.0, 1.0, 6.5)]:
            ref = float(stats.ncx2.cdf((delta / s) ** 2, 2, (mu / s) ** 2))
            assert analytic_pmd(mu, delta, 2.0 * s * s) == pytest.approx(
                ref, rel=1e-9, abs=1e-13)

    def test_rayleigh_reduction_matches_pfa_complement(self):
        # at zero distance both sides are the Rayleigh closed form
        for v in (0.125, 2.0, 18.0):
            for delta in np.linspace(0.0, 8.0, 33):
                lhs = analytic_pmd(0.0, float(delta), v)
                assert lhs == pytest.approx(1.0 - analytic_pfa(float(delta), v), abs=1e-12)

    def test_nondecreasing_and_limits(self):
        deltas = np.linspace(0.0, 12.0, 200)
        pmds = [analytic_pmd(1.5, float(delta), 0.98) for delta in deltas]
        assert all(b >= a for a, b in zip(pmds, pmds[1:]))
        assert pmds[0] == 0.0
        assert pmds[-1] == pytest.approx(1.0, abs=1e-12)

    def test_broadcast_grid_matches_points(self):
        v = 0.3162
        mus = np.array([0.0, 0.25, 1.0, 3.0])[:, None]
        deltas = np.array([design_threshold(p, v) for p in (1e-20, 0.01, 0.5)])
        grid = analytic_pmd(mus, deltas, v)
        assert grid.shape == (4, 3)
        points = [[analytic_pmd(float(mu), float(delta), v) for delta in deltas]
                  for mu in mus[:, 0]]
        assert all(type(p) is float for row in points for p in row)
        np.testing.assert_array_equal(grid, points)

    @pytest.mark.parametrize("mu,delta,v", [
        (-0.1, 1.0, 0.5), (math.nan, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 0.0),
    ])
    def test_rejects_bad_arguments(self, mu, delta, v):
        with pytest.raises(ParameterError):
            analytic_pmd(mu, delta, v)

    def test_monte_carlo_oracle_sinr_5db(self):
        # attacker offset 1 at the 5 dB operating point, threshold from pfa 0.1
        n = 1_000_000
        v = 0.31622776601683794
        mu = 1.0
        delta = design_threshold(0.1, v)
        eps = sample_complex_normal_array(RngHandle(809), 0j, v, n)
        stats = np.abs(mu + eps)
        p = analytic_pmd(mu, delta, v)
        p_hat = float(np.mean(stats < delta))
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_strong_attacker_tail_kept(self):
        # regression: 1 - Q1 subtracted from 1 twice read 0.0 here
        delta = design_threshold(0.01, 0.1)
        pmd = analytic_pmd(3.0, delta, 0.1)
        assert pmd == pytest.approx(7.0634230461e-26, rel=1e-10, abs=0.0)
        s = math.sqrt(0.05)
        assert pmd == pytest.approx(marcum_q1c_oracle(3.0 / s, delta / s), rel=1e-10, abs=0.0)

    def test_strictly_better_with_lower_variance(self):
        # receiver quality ordering for fixed target pfa and offset
        variances = [1.0, 0.3162, 0.1, 0.0316]
        pmds = []
        for v in variances:
            delta = design_threshold(0.1, v)
            pmds.append(analytic_pmd(0.5, delta, v))
        assert all(b < a for a, b in zip(pmds, pmds[1:]))

    def test_strictly_better_with_larger_offset(self):
        v = 0.3162
        delta = design_threshold(0.1, v)
        pmds = [analytic_pmd(mu, delta, v) for mu in (0.25, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(pmds, pmds[1:]))


class TestAnalyticPd:
    def test_zero_distance_equals_pfa(self):
        for pfa in (1e-12, 0.01, 0.1, 0.5):
            delta = design_threshold(pfa, 0.3)
            assert analytic_pd(0.0, delta, 0.3) == pytest.approx(pfa, rel=1e-13, abs=0.0)

    def test_complements_pmd(self):
        v = 0.3162
        for mu in (0.0, 0.25, 1.0, 2.0):
            for pfa in (0.01, 0.1, 0.5):
                delta = design_threshold(pfa, v)
                assert analytic_pd(mu, delta, v) + analytic_pmd(mu, delta, v) == pytest.approx(
                    1.0, abs=1e-15)

    def test_rejects_bad_variance(self):
        with pytest.raises(ParameterError):
            analytic_pd(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("pfa", [5e-324, 1e-300, 0.5, 1.0 - 1e-16])
    @pytest.mark.parametrize("v", [2.0, 0.031622776601683794])
    def test_every_distance_stays_inside_the_summed_domain(self, pfa, v):
        # b = delta/s <= 38.6 for any double pfa, so a summed point has
        # a <= 77.2, inside special's domain: no distance is refused
        s = math.sqrt(v / 2.0)
        mu = np.linspace(0.0, 1e4, 100_001) * s
        delta = design_threshold(pfa, v)
        for rate in (analytic_pd(mu, delta, v), analytic_pmd(mu, delta, v)):
            assert ((rate >= 0.0) & (rate <= 1.0)).all()


class TestAuthenticate:
    GROUND_TRUTH, VARIANCE, TARGET = 1 + 0j, 0.04, 0.1

    def test_exact_match_accepts(self):
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.04)
        decision = authenticate(est, self.GROUND_TRUTH, self.VARIANCE, self.TARGET)
        assert decision.statistic == 0.0
        assert decision.accepted

    def test_tie_rejects(self):
        threshold = design_threshold(self.TARGET, self.VARIANCE)
        est = FingerprintEstimate(value=complex(threshold, 0.0), error_variance=0.04)
        decision = authenticate(est, 0j, self.VARIANCE, self.TARGET)
        assert decision.statistic == threshold
        assert not decision.accepted

    def test_variance_mismatch_warns_but_decides(self):
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.9)
        with pytest.warns(UserWarning):
            decision = authenticate(est, self.GROUND_TRUTH, self.VARIANCE, self.TARGET)
        assert decision.accepted

    def test_threshold_recomputed_from_target(self):
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.25)
        decision = authenticate(est, self.GROUND_TRUTH, 0.25, 0.05)
        assert decision.threshold_used == design_threshold(0.05, 0.25)
        assert decision.threshold_used == pytest.approx(
            math.sqrt(-math.log(0.05) * 0.25), rel=1e-15)

    def test_invalid_target_rejected(self):
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.04)
        for target in (0.0, 1.0, math.nan):
            # twice in a row: a rejected target raises on every call
            for _ in range(2):
                with pytest.raises(ParameterError):
                    authenticate(est, self.GROUND_TRUTH, self.VARIANCE, target)

    def test_decision_fields(self):
        decision = AuthDecision(statistic=0.5, accepted=False, threshold_used=0.3)
        assert decision.threshold_used == 0.3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFingerprintDistance:
    @staticmethod
    def generic(value, ground_truth):
        d = value - ground_truth
        return np.sqrt(d.real * d.real + d.imag * d.imag)

    @staticmethod
    def draws():
        # magnitudes from 1e-200 to 1e200, so squares underflow and overflow too
        z = sample_complex_normal_array(RngHandle(17), 0j, 2.0, (24, 40))
        scale = np.logspace(-200, 200, z.size).reshape(z.shape)
        rng = np.random.default_rng(3)
        return z * rng.permutation(scale.ravel()).reshape(z.shape)

    @pytest.mark.parametrize("view", ["contiguous", "strided", "2-D", "2-D strided", "0-d"])
    def test_array_paths_bit_equal_to_generic_formula(self, view):
        z = self.draws()
        value = {"contiguous": z.ravel(), "strided": z.ravel()[1::3], "2-D": z,
                 "2-D strided": z[:, ::2], "0-d": z[3, 4:5].reshape(())}[view]
        before = value.copy()
        got = fingerprint_distance(value, 0.4 - 1.3j)
        want = self.generic(value, 0.4 - 1.3j)
        assert got.shape == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert value.tobytes() == before.tobytes()  # the input is left alone

    def test_array_ground_truth_is_left_alone(self):
        truth = self.draws()[0]
        before = truth.copy()
        got = fingerprint_distance(np.complex128(1 - 1j), truth)
        assert got.tobytes() == self.generic(np.complex128(1 - 1j), truth).tobytes()
        assert truth.tobytes() == before.tobytes()

    def test_scalar_paths_bit_equal_to_generic_formula(self):
        for z in self.draws().ravel()[::7]:
            want = float(self.generic(z, 0.4 - 1.3j))
            got = fingerprint_distance(complex(z), 0.4 - 1.3j)
            assert type(got) is float
            assert got == want
            assert fingerprint_distance(z, 0.4 - 1.3j) == want  # numpy scalar
