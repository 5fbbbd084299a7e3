"""Least-squares extraction of the residual-channel fingerprint.

The response model is y = h_res * (eta sqrt(p_r) x) + w, so the scalar LS
estimate is the projection of y onto the effective training signal.  The
estimator is unbiased with complex error variance
total_noise_variance / (eta^2 p_r ||x||^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .signaling import LinkNoiseParams, SignalFrame, TxParams


@dataclass(frozen=True)
class FingerprintEstimate:
    """LS estimate of the residual channel and its error variance."""

    value: complex
    error_variance: float


@functools.lru_cache(maxsize=32)
def effective_training(challenge: SignalFrame, tx: TxParams) -> tuple[np.ndarray, float]:
    """Conjugated training signal as seen through the forward gain, and its
    energy: the LS projection is sum(conj(x_eff) * y) / energy.

    Computed once per (challenge, tx) and returned write-protected.  Shared
    by the scalar estimator and the batched full-frame path
    (``experiments.simulate_estimates``) so the two stay arithmetically
    identical.
    """
    x_eff = (tx.eta * math.sqrt(tx.p_r)) * challenge.symbols
    energy = float(np.sum(x_eff.real**2 + x_eff.imag**2))
    x_conj = np.conj(x_eff)
    x_conj.setflags(write=False)
    return x_conj.view(), energy  # a view of a locked array cannot be unlocked


def estimation_error_variance(tx: TxParams, noise: LinkNoiseParams, challenge_energy: float) -> float:
    """Closed-form complex variance of the LS estimation error."""
    if challenge_energy <= 0.0:
        raise ParameterError("challenge energy must be > 0")
    return noise.total_variance / (tx.eta**2 * tx.p_r * challenge_energy)


def ls_estimate(
    challenge: SignalFrame,
    response: SignalFrame,
    tx: TxParams,
    noise: LinkNoiseParams,
) -> FingerprintEstimate:
    """Scalar least-squares fingerprint estimate from one frame pair.

    The challenge's conjugated effective training, its energy and the error
    variance's frame energy are computed once per (challenge, tx); only the
    projection of the response runs per call.
    """
    x = challenge.symbols
    y = response.symbols
    if x.size != y.size:
        raise ShapeError(f"frame length mismatch: challenge {x.size}, response {y.size}")
    x_conj, energy = effective_training(challenge, tx)
    value = complex((x_conj * y).sum() / energy)
    return FingerprintEstimate(
        value=value,
        error_variance=estimation_error_variance(tx, noise, challenge.energy),
    )
