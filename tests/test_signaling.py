"""Challenge-response signaling: consolidated and expanded paths."""

import math

import numpy as np
import pytest

from backscatter_auth.channel import LinkRealization
from backscatter_auth.errors import ParameterError, ShapeError
from backscatter_auth.rng import RngHandle
from backscatter_auth.signaling import (
    LinkNoiseParams,
    SignalFrame,
    TxParams,
    exchange,
    exchange_expanded,
    response_gain,
)
from backscatter_auth.validation import ks_critical, ks_statistic

NOISELESS = LinkNoiseParams(0.0, 0.0, 0.0)
UNIT_LINK = LinkRealization(h_tr=1 + 0j, h_rt=1 + 0j)
UNIT_TX = TxParams(p_r=1.0, eta=1.0)


class TestSignalFrame:
    def test_all_ones_energy(self):
        frame = SignalFrame.all_ones(8)
        assert len(frame) == 8
        assert frame.energy == 8.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            SignalFrame(np.array([], dtype=complex))

    def test_rejects_zero_energy(self):
        with pytest.raises(ParameterError):
            SignalFrame(np.zeros(4, dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            SignalFrame(np.array([1.0, np.nan + 0j]))

    def test_symbols_are_immutable(self):
        frame = SignalFrame.all_ones(3)
        with pytest.raises(ValueError):
            frame.symbols[0] = 0.0

    def test_all_ones_is_one_write_protected_frame_per_length(self):
        # the default challenge is shared by every episode of that length,
        # so no caller may change it in place
        frame = SignalFrame.all_ones(5)
        assert SignalFrame.all_ones(5) is frame
        assert SignalFrame.all_ones(6) is not frame
        assert not frame.symbols.flags.writeable
        with pytest.raises(ValueError):
            frame.symbols *= 2.0
        with pytest.raises(ValueError):
            np.copyto(frame.symbols, 0j)
        with pytest.raises(AttributeError):
            frame.energy = 0.0
        np.testing.assert_array_equal(SignalFrame.all_ones(5).symbols, np.ones(5))
        assert SignalFrame.all_ones(5).energy == 5.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_all_ones_rejects_nonpositive_length(self, n):
        with pytest.raises(ParameterError):
            SignalFrame.all_ones(n)

    def test_shared_frame_cannot_be_unlocked(self):
        frame = SignalFrame.all_ones(7)
        with pytest.raises(ValueError):
            frame.symbols.setflags(write=True)
        with pytest.raises(ValueError):
            SignalFrame(np.array([1.0, 2.0j])).symbols.setflags(write=True)

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_finite_frame_whose_energy_overflows_or_underflows_is_accepted(self, scale):
        symbols = scale * np.array([1.0, -0.5j, 0.25 + 0.75j])
        frame = SignalFrame(symbols)
        np.testing.assert_array_equal(frame.symbols, symbols)
        # the squared norm is 0.0 or not finite here (vdot reads NaN on
        # overflow), so the elementwise checks decided; energy is still vdot's
        assert not 0.0 < frame.energy < math.inf
        np.testing.assert_equal(frame.energy, float(np.vdot(symbols, symbols).real))

    def test_energy_is_the_vdot_value(self):
        symbols = np.array([0.3 - 1.1j, 2.0 + 0j, -0.7 + 0.2j])
        assert SignalFrame(symbols).energy == float(np.vdot(symbols, symbols).real)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                     complex(math.inf, 1.0)])
    def test_non_finite_message(self, bad):
        with pytest.raises(ParameterError, match="^frame contains non-finite symbols$"):
            SignalFrame(np.array([1.0, bad, 1e-170]))

    def test_all_zero_message(self):
        with pytest.raises(ParameterError, match=r"^all-zero training frame \(zero energy\)$"):
            SignalFrame(np.zeros(3, dtype=complex))


class TestParams:
    def test_total_variance_is_the_sum(self):
        noise = LinkNoiseParams(sigma2_r=0.5, sigma2_si_r=0.25, sigma2_si_t=0.25)
        assert noise.total_variance == 1.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ParameterError):
            LinkNoiseParams(sigma2_r=-0.1)

    @pytest.mark.parametrize("p_r,eta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_tx_params_must_be_positive(self, p_r, eta):
        with pytest.raises(ParameterError):
            TxParams(p_r=p_r, eta=eta)


class TestExchange:
    def test_noiseless_identity_link(self):
        x = SignalFrame(np.array([1.0, 1.0j, -1.0]))
        y = exchange(x, UNIT_LINK, UNIT_TX, NOISELESS, RngHandle(0))
        np.testing.assert_array_equal(y.symbols, x.symbols)

    def test_noiseless_gain_stackup(self):
        link = LinkRealization(h_tr=2 + 0j, h_rt=1 + 0j)
        tx = TxParams(p_r=4.0, eta=2.0)
        y = exchange(SignalFrame(np.array([1.0 + 0j])), link, tx, NOISELESS, RngHandle(0))
        assert y.symbols[0] == 8 + 0j

    def test_noise_moments(self):
        n = 100_000
        noise = LinkNoiseParams(sigma2_r=1.0)
        x = SignalFrame.all_ones(n)
        y = exchange(x, UNIT_LINK, UNIT_TX, noise, RngHandle(77))
        residual = y.symbols - response_gain(UNIT_LINK, UNIT_TX) * x.symbols
        assert float(np.var(residual.real)) == pytest.approx(0.5, rel=0.02)
        assert float(np.var(residual.imag)) == pytest.approx(0.5, rel=0.02)

    def test_linearity_noiseless(self):
        x = SignalFrame(np.array([0.5 - 0.25j, 1.0 + 2.0j, -3.0 + 0j]))
        alpha = 1.7 - 0.4j
        scaled = SignalFrame(alpha * x.symbols)
        link = LinkRealization(h_tr=1.1 + 0.3j, h_rt=0.7 - 0.2j)
        tx = TxParams(p_r=2.0, eta=0.5)
        y1 = exchange(x, link, tx, NOISELESS, RngHandle(0)).symbols
        y2 = exchange(scaled, link, tx, NOISELESS, RngHandle(0)).symbols
        np.testing.assert_allclose(y2, alpha * y1, rtol=1e-12)

    def test_energy_accounting_noiseless(self):
        x = SignalFrame(np.array([1.0, 1.0j, 2.0 - 1.0j]))
        link = LinkRealization(h_tr=1.2 + 0.5j, h_rt=0.4 - 0.9j)
        tx = TxParams(p_r=3.0, eta=1.5)
        y = exchange(x, link, tx, NOISELESS, RngHandle(0))
        expected = tx.p_r * tx.eta**2 * abs(link.h_res) ** 2 * x.energy
        assert y.energy == pytest.approx(expected, rel=1e-12)

    def test_output_length_matches_input(self):
        y = exchange(SignalFrame.all_ones(17), UNIT_LINK, UNIT_TX,
                     LinkNoiseParams(sigma2_r=1.0), RngHandle(0))
        assert len(y) == 17


class TestExchangeExpanded:
    def test_zero_noise_matches_consolidated(self):
        x = SignalFrame(np.array([1.0, -1.0j, 0.5 + 0.5j]))
        link = LinkRealization(h_tr=1.3 - 0.4j, h_rt=0.9 + 0.1j)
        tx = TxParams(p_r=2.5, eta=1.2)
        y_cons = exchange(x, link, tx, NOISELESS, RngHandle(1))
        y_exp = exchange_expanded(x, link, tx, NOISELESS, RngHandle(2))
        # the hop-by-hop path composes the same gains in a different order,
        # so determinism holds to machine rounding, not bitwise
        np.testing.assert_allclose(y_exp.symbols, y_cons.symbols, rtol=1e-13)

    def test_distributional_equivalence(self):
        n = 100_000
        noise = LinkNoiseParams(sigma2_r=0.5, sigma2_si_r=0.3, sigma2_si_t=0.2)
        link = LinkRealization(h_tr=1.0 + 0.2j, h_rt=0.8 - 0.1j)
        tx = TxParams(p_r=1.5, eta=1.1)
        x = SignalFrame.all_ones(n)
        y1 = exchange(x, link, tx, noise, RngHandle(31)).symbols
        y2 = exchange_expanded(x, link, tx, noise, RngHandle(32)).symbols

        total = noise.total_variance
        mean_limit = 4.0 * math.sqrt(2.0) * math.sqrt(total / n)
        assert abs(np.mean(y1) - np.mean(y2)) <= mean_limit
        assert abs(float(np.var(y1)) - float(np.var(y2))) <= 0.02 * total
        assert ks_statistic(np.abs(y1), np.abs(y2)) <= ks_critical(0.01, n, n)

    def test_return_path_gain_scaling_preserves_variance(self):
        # a strong return channel must not inflate the consolidated noise:
        # the tag-side draw is scaled down by |eta * h_rt|
        n = 100_000
        noise = LinkNoiseParams(sigma2_r=0.4, sigma2_si_r=0.4, sigma2_si_t=0.2)
        link = LinkRealization(h_tr=1 + 0j, h_rt=2 + 0j)
        tx = TxParams(p_r=1.0, eta=1.0)
        x = SignalFrame.all_ones(n)
        y = exchange_expanded(x, link, tx, noise, RngHandle(33)).symbols
        residual = y - response_gain(link, tx) * x.symbols
        assert float(np.var(residual)) == pytest.approx(noise.total_variance, rel=0.02)

    def test_tag_interference_needs_return_path(self):
        # degenerate: no return gain but tag-side interference requested
        link = LinkRealization(h_tr=1 + 0j, h_rt=0j)
        with pytest.raises(ParameterError):
            exchange_expanded(SignalFrame.all_ones(2), link, UNIT_TX,
                              LinkNoiseParams(sigma2_si_r=0.5), RngHandle(0))
