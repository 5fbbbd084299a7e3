"""Device, propagation, and link-composition contracts."""

import math

import numpy as np
import pytest

from backscatter_auth.channel import (
    DeviceModel,
    FixedChannel,
    LinkRealization,
    RayleighFadingChannel,
    make_link,
)
from backscatter_auth.errors import ParameterError
from backscatter_auth.rng import RngHandle, sample_complex_normal_array


def _reader(h_tx=1 + 0j, h_rx=1 + 0j):
    return DeviceModel(h_tx=h_tx, h_rx=h_rx)


def _tag(h_tx=1 + 0j, h_rx=1 + 0j):
    return DeviceModel(h_tx=h_tx, h_rx=h_rx)


UNIT = FixedChannel(1 + 0j)


class TestDeviceModel:
    def test_zero_chain_gain_rejected(self):
        with pytest.raises(ParameterError):
            DeviceModel(h_tx=0j, h_rx=1 + 0j)
        with pytest.raises(ParameterError):
            DeviceModel(h_tx=1 + 0j, h_rx=0j)

    def test_non_finite_gain_rejected(self):
        with pytest.raises(ParameterError):
            DeviceModel(h_tx=complex(math.inf, 0), h_rx=1 + 0j)

    def test_fading_variance_must_be_positive(self):
        with pytest.raises(ParameterError):
            RayleighFadingChannel(0.0)


class TestMakeLink:
    def test_identity_composition(self):
        link = make_link(_reader(), _tag(), UNIT, UNIT, RngHandle(0))
        assert link.h_res == 1 + 0j

    def test_direct_product(self):
        link = make_link(_reader(h_tx=2 + 0j, h_rx=1 + 0j),
                         _tag(h_tx=1 + 0j, h_rx=3 + 0j),
                         UNIT, UNIT, RngHandle(0))
        assert link.h_tr == 6 + 0j
        assert link.h_rt == 1 + 0j
        assert link.h_res == 6 + 0j

    def test_swapped_devices_same_residual(self):
        # h_res is the product of the same six gains whichever device goes
        # first: bit-equal over unit propagation, where the two factors only
        # trade places, and equal to rounding when the gains are faded
        reader = _reader(h_tx=1.2 + 0.1j, h_rx=0.9 - 0.3j)
        tag = _tag(h_tx=0.8 + 0.3j, h_rx=1.05 + 0.15j)
        fixed = make_link(reader, tag, UNIT, UNIT, RngHandle(0))
        swapped = make_link(tag, reader, UNIT, UNIT, RngHandle(0))
        assert (fixed.h_tr, fixed.h_rt) == (swapped.h_rt, swapped.h_tr)
        np.testing.assert_array_equal(np.array([fixed.h_res]).view(np.uint64),
                                      np.array([swapped.h_res]).view(np.uint64))

        fading = RayleighFadingChannel(1.0)
        for seed in range(100):
            faded = make_link(reader, tag, fading, fading, RngHandle(seed))
            swapped = make_link(tag, reader, fading, fading, RngHandle(seed))
            assert swapped.h_res == pytest.approx(faded.h_res, rel=1e-14)

    def test_fixed_spec_ignores_rng_state(self):
        rng = RngHandle(123)
        first = make_link(_reader(h_tx=1 + 1j), _tag(h_rx=2 - 1j), UNIT, UNIT, rng)
        rng.generator.standard_normal(1000)
        second = make_link(_reader(h_tx=1 + 1j), _tag(h_rx=2 - 1j), UNIT, UNIT, rng)
        assert first == second

    def test_residual_is_always_the_product(self):
        link = LinkRealization(h_tr=0.3 + 0.4j, h_rt=1.5 - 0.2j)
        assert link.h_res == (0.3 + 0.4j) * (1.5 - 0.2j)
        # product order cannot matter
        assert link.h_res == (1.5 - 0.2j) * (0.3 + 0.4j)

    def test_non_reciprocal_directions_same_residual(self):
        # distinct chain gains make the two directions differ while the
        # residual stays direction-free
        link = make_link(_reader(h_tx=2 + 0j, h_rx=0.5 + 0j),
                         _tag(h_tx=1 + 1j, h_rx=1 - 1j),
                         UNIT, UNIT, RngHandle(0))
        assert link.h_tr != link.h_rt
        assert link.h_res == link.h_tr * link.h_rt

    def test_rayleigh_fading_moments(self):
        n = 1_000_000
        reader = _reader(h_tx=2 + 0j, h_rx=1 + 0j)
        tag = _tag(h_tx=1 + 0j, h_rx=3 + 0j)
        fading = RayleighFadingChannel(1.0)
        # make_link draws the forward then the reverse gain, each one
        # interleaved (re, im) pair, so one (n, 2) array draw from the same
        # stream holds the gains of n successive links
        gains = sample_complex_normal_array(RngHandle(2_024), 0j, fading.variance, (n, 2))
        h_tr = reader.h_tx * gains[:, 0] * tag.h_rx
        h_rt = tag.h_tx * gains[:, 1] * reader.h_rx
        # the textbook product, rounded as Python's complex multiply rounds
        # it (numpy's complex array multiply may fuse and differ in the last bit)
        h_res = np.empty(n, dtype=np.complex128)
        h_res.real = h_tr.real * h_rt.real - h_tr.imag * h_rt.imag
        h_res.imag = h_tr.real * h_rt.imag + h_tr.imag * h_rt.real

        rng = RngHandle(2_024)
        links = [make_link(reader, tag, fading, fading, rng) for _ in range(10_000)]
        np.testing.assert_array_equal(h_tr[:10_000], [link.h_tr for link in links])
        np.testing.assert_array_equal(h_res[:10_000], [link.h_res for link in links])

        # h_res is a product of two independent zero-mean draws: mean 0 with
        # per-component variance (|2*3|^2 * 1) * (|1*1|^2 * 1) / 2 per factor pair
        var_res = float(np.var(h_res))
        se = math.sqrt(var_res / 2.0 / n)
        assert abs(float(np.mean(h_res.real))) <= 4.0 * se
        assert abs(float(np.mean(h_res.imag))) <= 4.0 * se

        # E|h_tr|^2 = |reader.h_tx|^2 * var * |tag.h_rx|^2 = 4 * 1 * 9
        assert float(np.mean(np.abs(h_tr) ** 2)) == pytest.approx(36.0, rel=0.01)

    @pytest.mark.parametrize("forward,reverse,normals", [
        (FixedChannel(0.5 - 2j), FixedChannel(1.5 + 0.25j), 0),
        (FixedChannel(0.5 - 2j), RayleighFadingChannel(0.7), 2),
        (RayleighFadingChannel(1.3), FixedChannel(1.5 + 0.25j), 2),
        (RayleighFadingChannel(1.3), RayleighFadingChannel(0.7), 4),
    ])
    def test_stream_contract_per_spec_pair(self, forward, reverse, normals):
        # whatever the pair, the link carries the bits of two realize calls,
        # forward then reverse, and the handle moves on by their normals only
        reader = _reader(h_tx=1.2 + 0.1j, h_rx=0.9 - 0.3j)
        tag = _tag(h_tx=0.8 + 0.3j, h_rx=1.05 + 0.15j)
        for seed in range(20):
            rng, fresh, counted = RngHandle(seed), RngHandle(seed), RngHandle(seed)
            link = make_link(reader, tag, forward, reverse, rng)
            h_tr = reader.h_tx * forward.realize(fresh) * tag.h_rx
            h_rt = tag.h_tx * reverse.realize(fresh) * reader.h_rx
            got = np.array([link.h_tr, link.h_rt, link.h_res]).view(np.uint64)
            want = np.array([h_tr, h_rt, h_tr * h_rt]).view(np.uint64)
            np.testing.assert_array_equal(got, want)
            counted.generator.standard_normal(normals)
            assert rng.generator.bit_generator.state == counted.generator.bit_generator.state
            assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state

    def test_distinct_devices_separate(self):
        reader = _reader(h_tx=1.2 + 0.1j, h_rx=0.9 - 0.3j)
        legit = _tag(h_tx=0.8 + 0.3j, h_rx=1.05 + 0.15j)
        clone = _tag(h_tx=0.6 - 0.4j, h_rx=1.2 + 0.1j)
        link_l = make_link(reader, legit, UNIT, UNIT, RngHandle(0))
        link_m = make_link(reader, clone, UNIT, UNIT, RngHandle(0))
        assert link_l.h_res != link_m.h_res
