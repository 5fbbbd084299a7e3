"""Device and link models.

A transceiver is characterized by one complex gain per RF chain (transmit
and receive); the two gains differ in general, which is what makes the
end-to-end channel non-reciprocal and device-specific.  A link realization
carries the two directional channels and their product, the residual
channel, which serves as the tag's fingerprint.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, ParameterError
from .rng import RngHandle, sample_complex_normal


class Role(enum.Enum):
    READER = "reader"
    LEGIT_TAG = "ltag"
    MALICIOUS_TAG = "mtag"


@dataclass(frozen=True)
class DeviceModel:
    """One transceiver: Tx/Rx chain gains."""

    h_tx: complex
    h_rx: complex
    role: Role = Role.READER

    def __post_init__(self):
        for name, h in (("h_tx", self.h_tx), ("h_rx", self.h_rx)):
            h = complex(h)
            if not cmath.isfinite(h):
                raise ParameterError(f"{name} must be finite, got {h!r}")
            if h == 0:
                raise ParameterError(f"{name} must be nonzero (degenerate link)")
            object.__setattr__(self, name, h)


@dataclass(frozen=True)
class FixedChannel:
    """Deterministic propagation gain."""

    gain: complex

    def realize(self, rng: RngHandle) -> complex:
        return complex(self.gain)


@dataclass(frozen=True)
class RayleighFadingChannel:
    """Zero-mean circularly symmetric propagation gain, CN(0, variance)."""

    variance: float

    def __post_init__(self):
        if not math.isfinite(self.variance) or self.variance <= 0.0:
            raise ParameterError(f"fading variance must be > 0, got {self.variance!r}")

    def realize(self, rng: RngHandle) -> complex:
        return sample_complex_normal(rng, 0j, self.variance)


RfChannelSpec = FixedChannel | RayleighFadingChannel

# bound once: make_link runs per episode, and each Role.X is an attribute lookup
_READER = Role.READER
_TAG_ROLES = (Role.LEGIT_TAG, Role.MALICIOUS_TAG)


@dataclass(frozen=True)
class LinkRealization:
    """One draw of the two directional channels; h_res is always their product."""

    h_tr: complex
    h_rt: complex
    h_res: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h_res", self.h_tr * self.h_rt)


def make_link(
    reader: DeviceModel,
    tag: DeviceModel,
    forward_rf: RfChannelSpec,
    reverse_rf: RfChannelSpec,
    rng: RngHandle,
) -> LinkRealization:
    """Compose reader->tag and tag->reader channels through the devices'
    chain gains and the propagation gains drawn from the RF specs."""
    if reader.role is not _READER:
        raise ConfigurationError(f"reader argument has role {reader.role}")
    if tag.role not in _TAG_ROLES:
        raise ConfigurationError(f"tag argument has role {tag.role}")
    h_tr = reader.h_tx * forward_rf.realize(rng) * tag.h_rx
    h_rt = tag.h_tx * reverse_rf.realize(rng) * reader.h_rx
    return LinkRealization(h_tr=h_tr, h_rt=h_rt)


def residual_distance(link_a: LinkRealization, link_b: LinkRealization) -> float:
    """Magnitude of the residual-channel difference between two links."""
    return abs(link_a.h_res - link_b.h_res)
