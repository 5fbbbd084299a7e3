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


class TestArrayAssembly:
    @staticmethod
    def formula(rng, mean, variance, shape):
        # the textbook assembly from the twin handle's raw interleaved normals
        z = rng.generator.standard_normal(shape + (2,))
        return mean + math.sqrt(variance / 2.0) * (z[..., 0] + 1j * z[..., 1])

    @pytest.mark.parametrize("size", [1, 17, (3, 5), (2, 1, 4)])
    @pytest.mark.parametrize("mean", [0j, 0.3 - 1.2j, -2.5 + 0j])
    @pytest.mark.parametrize("variance", [1.0, 3.7, 1e-300])
    def test_bit_equal_to_formula(self, size, mean, variance):
        got = sample_complex_normal_array(RngHandle(21, (4,)), mean, variance, size)
        shape = (size,) if isinstance(size, int) else size
        want = self.formula(RngHandle(21, (4,)), mean, variance, shape)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [6, (2, 3)])
    @pytest.mark.parametrize("variance", [0.0, 0.5])
    def test_result_is_contiguous_and_writable(self, size, variance):
        z = sample_complex_normal_array(RngHandle(2), 1 - 1j, variance, size)
        assert z.dtype == np.complex128
        assert z.flags.c_contiguous and z.flags.writeable
        z += 1.0  # the caller owns it

    def test_zero_variance_is_the_mean_exactly(self):
        z = sample_complex_normal_array(RngHandle(2), -0.25 + 4j, 0.0, (2, 3))
        assert z.tobytes() == np.full((2, 3), -0.25 + 4j).tobytes()


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

    @pytest.mark.parametrize("mean", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ParameterError, match="mean must be finite"):
            sample_complex_normal(RngHandle(0), mean, 1.0)
        with pytest.raises(ParameterError, match="mean must be finite"):
            sample_complex_normal_array(RngHandle(0), mean, 1.0, 4)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError):
            RngHandle(seed)

    def test_bad_spawn_index_rejected(self):
        with pytest.raises(ParameterError):
            RngHandle(0).spawn(-1)

    def test_float_seed_rejected_not_truncated(self):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            RngHandle(8.9)
        with pytest.raises(ParameterError, match="spawn key must be an integer"):
            RngHandle(8, (1.0,))

    def test_float_spawn_index_rejected_not_truncated(self):
        with pytest.raises(ParameterError, match="spawn index must be an integer"):
            RngHandle(8).spawn(2.5)

    def test_numpy_integers_index_like_ints(self):
        # operator.index: the same streams as Python ints
        a = RngHandle(np.uint64(8), (np.int64(2),)).spawn(np.int32(3))
        b = RngHandle(8, (2,)).spawn(3)
        assert (a.seed, a.spawn_key) == (b.seed, b.spawn_key) == (8, (2, 3))
        assert all(type(k) is int for k in (a.seed, *a.spawn_key))
        np.testing.assert_array_equal(a.generator.standard_normal(4),
                                      b.generator.standard_normal(4))

    def test_numpy_integer_size_is_a_length(self):
        draws = sample_complex_normal_array(RngHandle(3), 1j, 0.5, np.int64(3))
        assert draws.shape == (3,)
        assert draws.tobytes() == sample_complex_normal_array(RngHandle(3), 1j, 0.5, 3).tobytes()

    def test_float_size_rejected(self):
        with pytest.raises(ParameterError, match="size must be an integer"):
            sample_complex_normal_array(RngHandle(3), 0j, 1.0, 3.0)
