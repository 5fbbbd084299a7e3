"""Reproducibility and distribution contracts of the seeded sampling layer."""

import math

import numpy as np
import pytest

from backscatter_auth.errors import ParameterError
from backscatter_auth.rng import (
    RngHandle,
    sample_complex_normal,
    sample_complex_normal_array,
)


class TestReproducibility:
    def test_identical_seed_identical_stream(self):
        a = RngHandle(42)
        b = RngHandle(42)
        seq_a = [sample_complex_normal(a, 0j, 2.0) for _ in range(100)]
        seq_b = [sample_complex_normal(b, 0j, 2.0) for _ in range(100)]
        assert seq_a == seq_b

    def test_different_seeds_differ(self):
        assert sample_complex_normal(RngHandle(1), 0j, 1.0) != sample_complex_normal(
            RngHandle(2), 0j, 1.0)

    def test_spawn_is_stateless_and_deterministic(self):
        root = RngHandle(7)
        child_a = root.spawn(3)
        child_b = RngHandle(7).spawn(3)
        assert child_a.spawn_key == (3,)
        xs = sample_complex_normal_array(child_a, 0j, 1.0, 16)
        ys = sample_complex_normal_array(child_b, 0j, 1.0, 16)
        np.testing.assert_array_equal(xs, ys)

    def test_spawned_streams_are_distinct(self):
        root = RngHandle(7)
        xs = sample_complex_normal_array(root.spawn(0), 0j, 1.0, 16)
        ys = sample_complex_normal_array(root.spawn(1), 0j, 1.0, 16)
        assert not np.array_equal(xs, ys)

    def test_batched_draw_equals_sequential_draws(self):
        # the pinned stream discipline behind the batched full-frame LS path
        trials, n = 64, 8
        batched = sample_complex_normal_array(RngHandle(11), 0j, 1.0, (trials, n))
        rng = RngHandle(11)
        rows = [sample_complex_normal_array(rng, 0j, 1.0, n) for _ in range(trials)]
        np.testing.assert_array_equal(batched, np.stack(rows))

    def test_scalar_and_length_one_array_agree(self):
        z = sample_complex_normal(RngHandle(5), 1 + 2j, 0.7)
        arr = sample_complex_normal_array(RngHandle(5), 1 + 2j, 0.7, 1)
        assert z == arr[0]


class TestDistribution:
    def test_zero_variance_returns_mean_exactly(self):
        rng = RngHandle(0)
        assert sample_complex_normal(rng, 1 + 2j, 0.0) == 1 + 2j
        arr = sample_complex_normal_array(rng, 1 + 2j, 0.0, 5)
        assert np.all(arr == 1 + 2j)

    def test_zero_variance_consumes_no_stream(self):
        a = RngHandle(9)
        sample_complex_normal(a, 1 + 1j, 0.0)
        b = RngHandle(9)
        assert sample_complex_normal(a, 0j, 1.0) == sample_complex_normal(b, 0j, 1.0)

    def test_moments_seed_42(self):
        n = 1_000_000
        draws = sample_complex_normal_array(RngHandle(42), 0j, 2.0, n)
        # per-component mean within 0.005, per-component variance within 1%
        assert abs(float(np.mean(draws.real))) < 0.005
        assert abs(float(np.mean(draws.imag))) < 0.005
        assert float(np.var(draws.real)) == pytest.approx(1.0, rel=0.01)
        assert float(np.var(draws.imag)) == pytest.approx(1.0, rel=0.01)

    def test_nonzero_mean_shift(self):
        draws = sample_complex_normal_array(RngHandle(3), 3 - 4j, 0.25, 200_000)
        assert float(np.mean(draws.real)) == pytest.approx(3.0, abs=0.01)
        assert float(np.mean(draws.imag)) == pytest.approx(-4.0, abs=0.01)
        assert float(np.var(draws)) == pytest.approx(0.25, rel=0.02)


class TestValidation:
    def test_negative_variance_rejected(self):
        rng = RngHandle(0)
        with pytest.raises(ParameterError):
            sample_complex_normal(rng, 0j, -1.0)
        with pytest.raises(ParameterError):
            sample_complex_normal_array(rng, 0j, -1e-9, 4)

    def test_non_finite_variance_rejected(self):
        with pytest.raises(ParameterError):
            sample_complex_normal(RngHandle(0), 0j, math.nan)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError):
            RngHandle(seed)

    def test_bad_spawn_index_rejected(self):
        with pytest.raises(ParameterError):
            RngHandle(0).spawn(-1)
