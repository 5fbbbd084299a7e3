"""Least-squares extraction of the residual-channel fingerprint.

The response model is y = h_res * (eta sqrt(p_r) x) + w, so the scalar LS
estimate is the projection of y onto the effective training signal.  The
estimator is unbiased with complex error variance
total_noise_variance / (eta^2 p_r ||x||^2).
"""

from __future__ import annotations

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


def effective_training(symbols: np.ndarray, tx: TxParams) -> tuple[np.ndarray, float]:
    """Training signal as seen through the forward gain, and its energy.

    Shared by the scalar estimator and the batched full-frame path
    (``experiments.simulate_estimates``) so the two stay arithmetically
    identical.
    """
    x_eff = (tx.eta * math.sqrt(tx.p_r)) * symbols
    energy = float(np.sum(x_eff.real**2 + x_eff.imag**2))
    return x_eff, energy


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
    """Scalar least-squares fingerprint estimate from one frame pair."""
    x = challenge.symbols
    y = response.symbols
    if x.size != y.size:
        raise ShapeError(f"frame length mismatch: challenge {x.size}, response {y.size}")
    x_eff, energy = effective_training(x, tx)
    value = complex(np.sum(np.conj(x_eff) * y) / energy)
    return FingerprintEstimate(
        value=value,
        error_variance=estimation_error_variance(tx, noise, challenge.energy),
    )
