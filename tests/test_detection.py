"""Threshold design, the accept/reject rule, and closed-form error rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_auth.detection import (
    AuthDecision,
    DetectorConfig,
    analytic_pd,
    analytic_pfa,
    analytic_pmd,
    authenticate,
    design_threshold,
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


class TestAnalyticPmd:
    def test_zero_distance_collapses_to_complement_of_pfa(self):
        for pfa in (0.01, 0.1, 0.5):
            delta = design_threshold(pfa, 0.3)
            assert analytic_pmd(0.0, delta, 0.3) == pytest.approx(1.0 - pfa, rel=1e-12)

    def test_zero_threshold_rejects_everything(self):
        assert analytic_pmd(1.0, 0.0, 0.5) == 0.0

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


class TestAuthenticate:
    def _config(self, **kw):
        defaults = dict(ground_truth=1 + 0j, est_variance=0.04, target_pfa=0.1)
        defaults.update(kw)
        return DetectorConfig(**defaults)

    def test_exact_match_accepts(self):
        config = self._config()
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.04)
        decision = authenticate(est, config)
        assert decision.statistic == 0.0
        assert decision.accepted

    def test_tie_rejects(self):
        config = self._config(ground_truth=0j)
        est = FingerprintEstimate(value=complex(config.threshold, 0.0), error_variance=0.04)
        decision = authenticate(est, config)
        assert decision.statistic == config.threshold
        assert not decision.accepted

    def test_variance_mismatch_warns_but_decides(self):
        config = self._config()
        est = FingerprintEstimate(value=1 + 0j, error_variance=0.9)
        with pytest.warns(UserWarning):
            decision = authenticate(est, config)
        assert decision.accepted

    def test_threshold_recomputed_from_target(self):
        config = self._config(est_variance=0.25, target_pfa=0.05)
        assert config.threshold == pytest.approx(
            math.sqrt(-math.log(0.05) * 0.25), rel=1e-15)

    def test_invalid_target_rejected(self):
        with pytest.raises(ParameterError):
            self._config(target_pfa=0.0)

    def test_decision_fields(self):
        decision = AuthDecision(statistic=0.5, accepted=False, threshold_used=0.3)
        assert decision.threshold_used == 0.3
