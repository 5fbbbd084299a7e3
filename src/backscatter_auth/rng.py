"""Seeded random sampling with reproducible parallel streams.

Generator choice (pinned, do not change silently)
-------------------------------------------------
All randomness flows through numpy's PCG64 bit generator seeded by
``SeedSequence(entropy=seed, spawn_key=key)``.  A root handle has an empty
``spawn_key``; derived streams extend the key by one integer per level
(``spawn(i)`` appends ``i``).  The (seed, spawn_key) pair fully determines
the stream, so shard layouts are reproducible across runs, platforms and
thread counts.

Complex draws consume the underlying generator as standard normals shaped
``(..., 2)``, real and imaginary parts interleaved per element.  Because
numpy fills arrays in C order, a batched ``(trials, n, 2)`` draw consumes
the stream exactly like ``trials`` successive ``(n, 2)`` draws, so the
batched full-frame path is bit-identical to a loop of per-trial episodes.
The array sampler reads that interleaved buffer in place as complex128
(same memory layout) and applies the scale and the mean in place, so a draw
allocates one array; the values equal ``mean + s*(re + 1j*im)`` bit for bit.
The Monte Carlo engine draws one complex estimate per trial instead of the
frame, so it consumes two standard normals per trial and matches the
per-trial pipeline in distribution, not bit for bit.

A handle is single-owner: never share one across concurrent callers, give
each worker its own ``spawn``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_U64_MAX = 2**64 - 1


class RngHandle:
    """Deterministic random stream identified by (seed, spawn_key)."""

    __slots__ = ("seed", "spawn_key", "_gen")

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        if not (0 <= int(seed) <= _U64_MAX):
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def spawn(self, index: int) -> "RngHandle":
        """Derive the independent child stream at ``index`` (stateless: same
        (seed, spawn_key, index) always yields the same stream)."""
        if index < 0:
            raise ParameterError(f"spawn index must be nonnegative, got {index}")
        return RngHandle(self.seed, self.spawn_key + (int(index),))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngHandle(seed={self.seed}, spawn_key={self.spawn_key})"


def sample_complex_normal(rng: RngHandle, mean: complex, variance: float) -> complex:
    """One draw of a circularly symmetric complex normal CN(mean, variance).

    Convention: ``variance`` is the total complex variance E|z - mean|²; the
    real and imaginary parts are independent N(·, variance/2).  A zero
    variance returns ``mean`` exactly and consumes no stream.
    """
    _check_variance(variance)
    mean = complex(mean)
    if not (math.isfinite(mean.real) and math.isfinite(mean.imag)):
        raise ParameterError(f"mean must be finite, got {mean!r}")
    if variance == 0.0:
        return mean
    # Python floats: the same IEEE products as numpy scalars, at less cost
    re, im = rng.generator.standard_normal(2).tolist()
    s = math.sqrt(variance / 2.0)
    return mean + complex(re * s, im * s)


def sample_complex_normal_array(
    rng: RngHandle, mean: complex, variance: float, size: int | tuple[int, ...]
) -> np.ndarray:
    """Array of i.i.d. CN(mean, variance) draws, stream-compatible with the
    scalar sampler (interleaved re/im consumption)."""
    _check_variance(variance)
    mean = complex(mean)
    if not (math.isfinite(mean.real) and math.isfinite(mean.imag)):
        raise ParameterError(f"mean must be finite, got {mean!r}")
    shape = (size,) if isinstance(size, int) else tuple(size)
    if variance == 0.0:
        return np.full(shape, complex(mean), dtype=np.complex128)
    # a C-order (..., 2) float64 buffer has complex128's memory layout, so
    # the draw is read in place as complex and scaled and shifted in place
    z = rng.generator.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
    z *= math.sqrt(variance / 2.0)
    z += mean
    return z


def _check_variance(variance: float) -> None:
    if not math.isfinite(variance) or variance < 0.0:
        raise ParameterError(f"variance must be finite and >= 0, got {variance!r}")
