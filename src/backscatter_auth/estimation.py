"""Least-squares extraction of the residual-channel fingerprint.

The response model is y = h_res * (eta sqrt(p_r) x) + w, so the LS
estimate is the projection of y onto the effective training signal.  The
estimator is unbiased with complex error variance
total_noise_variance / (eta^2 p_r ||x||^2).  ``ls_estimate`` is the one
projection, for one episode's response or a batch of them alike.
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

    Computed once per (challenge, tx) and returned write-protected.
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


def ls_estimate(challenge: SignalFrame, responses: np.ndarray, tx: TxParams) -> np.ndarray:
    """Least-squares fingerprint estimates of the responses to one
    challenge, projected along their last axis.  That axis must have the
    challenge's length: a last axis of 1 is refused, not broadcast against
    a longer challenge."""
    x_conj, energy = effective_training(challenge, tx)
    if responses.shape[-1:] != x_conj.shape:
        raise ShapeError(f"responses of shape {responses.shape} do not end in the "
                         f"challenge length {x_conj.size}")
    return (x_conj * responses).sum(axis=-1) / energy
