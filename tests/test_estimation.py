"""Least-squares fingerprint estimation contracts."""

import math

import numpy as np
import pytest

from backscatter_auth.errors import ParameterError, ShapeError
from backscatter_auth.estimation import (
    effective_training,
    estimation_error_variance,
    ls_estimate,
)
from backscatter_auth.experiments import canonical_scenario, simulate_estimates
from backscatter_auth.rng import RngHandle
from backscatter_auth.signaling import (
    LinkNoiseParams,
    SignalFrame,
    TxParams,
    exchange,
)
from backscatter_auth.channel import LinkRealization

NOISELESS = LinkNoiseParams(0.0, 0.0, 0.0)


class TestLsEstimate:
    def test_noiseless_recovery_is_exact(self):
        link = LinkRealization(h_tr=1.3 - 0.7j, h_rt=0.6 + 0.8j)
        tx = TxParams(p_r=2.0, eta=1.5)
        x = SignalFrame(np.array([1.0, 1.0j, -0.5 + 0.25j, 2.0 + 0j]))
        y = exchange(x, link, tx, NOISELESS, RngHandle(0))
        est = ls_estimate(x, y, tx, NOISELESS)
        assert est.value == pytest.approx(link.h_res, rel=1e-12)

    def test_error_variance_all_ones(self):
        # eta = 1, p_r = 1, total noise 1 -> variance 1/N
        for n in (1, 4, 16):
            x = SignalFrame.all_ones(n)
            y = exchange(x, LinkRealization(h_tr=1 + 0j, h_rt=1 + 0j),
                         TxParams(1.0, 1.0), LinkNoiseParams(sigma2_r=1.0), RngHandle(1))
            est = ls_estimate(x, y, TxParams(1.0, 1.0), LinkNoiseParams(sigma2_r=1.0))
            assert est.error_variance == pytest.approx(1.0 / n, rel=1e-14)

    def test_doubling_training_halves_variance(self):
        tx = TxParams(p_r=2.0, eta=3.0)
        noise = LinkNoiseParams(sigma2_r=0.7, sigma2_si_r=0.2, sigma2_si_t=0.1)
        link = LinkRealization(h_tr=1 + 0j, h_rt=1 + 0j)

        def variance(n):
            x = SignalFrame.all_ones(n)
            y = exchange(x, link, tx, noise, RngHandle(2))
            return ls_estimate(x, y, tx, noise).error_variance

        assert variance(16) == pytest.approx(variance(8) / 2.0, rel=1e-14)

    def test_variance_equals_inverse_sinr_times_energy(self):
        # the closed form is 1 / (SINR * ||x||^2) for any parameter mix
        cases = [
            (TxParams(1.0, 1.0), LinkNoiseParams(sigma2_r=1.0), 8),
            (TxParams(4.0, 0.5), LinkNoiseParams(sigma2_r=0.2, sigma2_si_r=0.3), 3),
            (TxParams(0.25, 10.0), LinkNoiseParams(sigma2_si_t=2.0), 12),
        ]
        link = LinkRealization(h_tr=1 + 0j, h_rt=1 + 0j)
        for tx, noise, n in cases:
            x = SignalFrame.all_ones(n)
            y = exchange(x, link, tx, noise, RngHandle(3))
            est = ls_estimate(x, y, tx, noise)
            sinr = tx.eta**2 * tx.p_r / noise.total_variance
            assert est.error_variance == pytest.approx(1.0 / (sinr * x.energy), rel=1e-12)

    def test_zero_energy_challenge_rejected(self):
        with pytest.raises(ParameterError, match="challenge energy must be > 0"):
            estimation_error_variance(TxParams(1.0, 1.0), LinkNoiseParams(sigma2_r=1.0), 0.0)

    def test_length_mismatch_rejected(self):
        x = SignalFrame.all_ones(4)
        y = SignalFrame.all_ones(5)
        with pytest.raises(ShapeError):
            ls_estimate(x, y, TxParams(1.0, 1.0), NOISELESS)

    def test_non_training_challenge_supported(self):
        # arbitrary (non unit-modulus) training sequences are fine
        rng = RngHandle(17)
        x = SignalFrame(np.array([2.0 + 1.0j, -0.3 + 0.4j, 1.5 - 2.0j]))
        link = LinkRealization(h_tr=0.5 + 0.5j, h_rt=1.0 - 0.25j)
        tx = TxParams(p_r=1.7, eta=0.9)
        y = exchange(x, link, tx, NOISELESS, rng)
        est = ls_estimate(x, y, tx, NOISELESS)
        assert est.value == pytest.approx(link.h_res, rel=1e-12)


class TestChallengeInvariantsCache:
    def test_cache_key_includes_tx(self):
        # one challenge frame under two transmit settings, interleaved: each
        # estimate must equal the uncached LS formula for its own tx, bit for bit
        x = SignalFrame(np.array([1.0, 1.0j, -0.5 + 0.25j, 2.0 - 1.0j]))
        noise = LinkNoiseParams(sigma2_r=0.3, sigma2_si_r=0.1)
        link = LinkRealization(h_tr=1.3 - 0.7j, h_rt=0.6 + 0.8j)
        rng = RngHandle(8)
        for tx in (TxParams(2.0, 1.5), TxParams(0.5, 2.0), TxParams(2.0, 1.5)):
            y = exchange(x, link, tx, noise, rng)
            est = ls_estimate(x, y, tx, noise)
            x_eff = (tx.eta * math.sqrt(tx.p_r)) * x.symbols
            energy = float(np.sum(x_eff.real**2 + x_eff.imag**2))
            assert est.value == complex(np.sum(np.conj(x_eff) * y.symbols) / energy)
            assert est.error_variance == noise.total_variance / (tx.eta**2 * tx.p_r * x.energy)

    def test_cached_training_is_write_protected(self):
        x_conj, _ = effective_training(SignalFrame.all_ones(4), TxParams(1.0, 2.0))
        with pytest.raises(ValueError):
            x_conj[0] = 0j

    def test_cached_training_cannot_be_unlocked(self):
        x_conj, _ = effective_training(SignalFrame.all_ones(4), TxParams(1.0, 2.0))
        with pytest.raises(ValueError):
            x_conj.setflags(write=True)


class TestEstimatorStatistics:
    def test_unbiased_with_predicted_variance(self):
        trials = 100_000
        scenario = canonical_scenario(sinr_db=5.0, n_train=8, mu_mag=0.0)
        est = simulate_estimates(scenario, scenario.legit_link, trials, RngHandle(404))
        v = scenario.est_variance
        truth = scenario.legit_link.h_res
        comp_se = math.sqrt(v / 2.0 / trials)
        assert abs(float(np.mean(est.real)) - truth.real) <= 4.0 * comp_se
        assert abs(float(np.mean(est.imag)) - truth.imag) <= 4.0 * comp_se
        assert float(np.var(est.real)) == pytest.approx(v / 2.0, rel=0.02)
        assert float(np.var(est.imag)) == pytest.approx(v / 2.0, rel=0.02)
