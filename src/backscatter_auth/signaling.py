"""Two-way challenge-response signaling over an amplify-and-forward link.

The reader transmits a training frame, the tag amplifies and backscatters
it, and the reader receives the response corrupted by its own thermal
noise plus the self-interference of both full-duplex ends.  ``exchange``
applies the consolidated single-noise form; ``exchange_expanded`` walks
the hop-by-hop path (tag reception, amplification, reader reception) and
exists to demonstrate the two are statistically identical.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkRealization
from .errors import ParameterError, ShapeError
from .rng import RngHandle, sample_complex_normal_array


@dataclass(frozen=True, eq=False)
class SignalFrame:
    """Ordered complex baseband symbols: nonempty, finite, not all zero.

    A frame is immutable (its symbols are write-protected), so it compares
    and hashes by identity and caches what is derived from it: its energy,
    computed once with the frame's checks (0.0 where the squared norm
    underflows, inf or NaN where it overflows), and its effective training
    per ``TxParams`` in ``estimation``.  The default challenge
    ``all_ones(n)`` is one shared frame per length, so a challenge's
    invariants are computed once per (n_train, tx), not per episode.
    """

    symbols: np.ndarray
    energy: float = field(init=False, repr=False)  # squared l2 norm of the frame

    def __post_init__(self):
        # private copy: freezing a caller-owned array would be a side effect
        arr = np.array(self.symbols, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError(f"frame must be a nonempty 1-D sequence, got shape {arr.shape}")
        energy = float(np.vdot(arr, arr).real)
        # a finite, nonzero energy proves the symbols finite and not all zero;
        # only a frame whose energy overflows, underflows or is NaN needs the
        # elementwise checks
        if not 0.0 < energy < math.inf:
            if not np.isfinite(arr).all():
                raise ParameterError("frame contains non-finite symbols")
            if not arr.any():
                raise ParameterError("all-zero training frame (zero energy)")
        arr.setflags(write=False)
        # a view of the locked array cannot be made writable again
        object.__setattr__(self, "symbols", arr.view())
        object.__setattr__(self, "energy", energy)

    def __len__(self) -> int:
        return self.symbols.size

    @classmethod
    def all_ones(cls, n: int) -> "SignalFrame":
        """Unit-modulus training frame of length n (the default challenge):
        one shared, write-protected frame per length."""
        n = operator.index(n)  # 8.0 must raise, not hit the cache entry for 8
        if n < 1:
            raise ParameterError(f"frame length must be >= 1, got {n}")
        return _all_ones(n)


@functools.lru_cache(maxsize=32)
def _all_ones(n: int) -> SignalFrame:
    return SignalFrame(np.ones(n, dtype=np.complex128))


@dataclass(frozen=True)
class LinkNoiseParams:
    """Noise/interference variances at the consolidated reader output:
    reader thermal, reader-side self-interference, tag-side self-interference."""

    sigma2_r: float = 0.0
    sigma2_si_r: float = 0.0
    sigma2_si_t: float = 0.0

    def __post_init__(self):
        for name in ("sigma2_r", "sigma2_si_r", "sigma2_si_t"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {v!r}")

    @property
    def total_variance(self) -> float:
        """Aggregate variance of the consolidated noise term."""
        return self.sigma2_r + self.sigma2_si_r + self.sigma2_si_t


@dataclass(frozen=True)
class TxParams:
    """Reader transmit power and tag amplification factor."""

    p_r: float
    eta: float

    def __post_init__(self):
        if not math.isfinite(self.p_r) or self.p_r <= 0.0:
            raise ParameterError(f"p_r must be > 0, got {self.p_r!r}")
        if not math.isfinite(self.eta) or self.eta <= 0.0:
            raise ParameterError(f"eta must be > 0, got {self.eta!r}")


def response_gain(link: LinkRealization, tx: TxParams) -> complex:
    """End-to-end complex gain of the consolidated response path."""
    return math.sqrt(tx.p_r) * tx.eta * link.h_res


def exchange(
    challenge: SignalFrame,
    link: LinkRealization,
    tx: TxParams,
    noise: LinkNoiseParams,
    rng: RngHandle,
) -> SignalFrame:
    """Consolidated response: y[n] = sqrt(p_r) * eta * h_res * x[n] + w[n],
    with w i.i.d. CN(0, total noise variance)."""
    x = challenge.symbols
    y = sample_complex_normal_array(rng, 0j, noise.total_variance, x.size)
    y += response_gain(link, tx) * x
    return SignalFrame(y)


def exchange_expanded(
    challenge: SignalFrame,
    link: LinkRealization,
    tx: TxParams,
    noise: LinkNoiseParams,
    rng: RngHandle,
) -> SignalFrame:
    """Hop-by-hop response path.

    The tag receives the challenge plus its self-interference (no thermal
    noise at the passive tag), amplifies by eta, and backscatters; the
    reader adds its own self-interference and thermal noise.  The two
    self-interference draws are unit-variance and scaled such that, at the
    consolidated reader output, the tag-side term carries sigma2_si_r and
    the reader-side term carries sigma2_si_t, reproducing the aggregate
    variance of ``exchange`` regardless of |h_rt|.
    """
    x = challenge.symbols
    n = x.size

    z_t = sample_complex_normal_array(rng, 0j, 1.0, n)
    z_r = sample_complex_normal_array(rng, 0j, 1.0, n)
    n_r = sample_complex_normal_array(rng, 0j, noise.sigma2_r, n)

    amp_gain = tx.eta * link.h_rt
    if noise.sigma2_si_r > 0.0:
        if amp_gain == 0:
            raise ParameterError("tag self-interference requires a nonzero return path")
        c_t = math.sqrt(noise.sigma2_si_r) / abs(amp_gain)
    else:
        c_t = 0.0
    c_r = math.sqrt(noise.sigma2_si_t)

    y_tag = math.sqrt(tx.p_r) * x * link.h_tr + c_t * z_t
    y_reader = amp_gain * y_tag + c_r * z_r + n_r
    return SignalFrame(y_reader)
