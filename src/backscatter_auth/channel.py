"""Device and link models.

A transceiver is characterized by one complex gain per RF chain (transmit
and receive); the two gains differ in general, which is what makes the
end-to-end channel non-reciprocal and device-specific.  A link realization
carries the two directional channels and their product, the residual
channel, which serves as the tag's fingerprint.

A device carries no role label: the reader goes first in ``make_link``,
and a scenario's links say which tag is legitimate.  The residual does not
depend on the device order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import ParameterError
from .rng import RngHandle, complex_normal_from, sample_complex_normal


@dataclass(frozen=True)
class DeviceModel:
    """One transceiver: Tx/Rx chain gains."""

    h_tx: complex
    h_rx: complex

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
    rng: RngHandle | None,
) -> LinkRealization:
    """Compose reader->tag and tag->reader channels through the devices'
    chain gains and the propagation gains drawn from the RF specs.  The reader
    goes first, but h_res, the product of all six gains, is order-free.

    The forward gain is drawn first, then the reverse gain.  When both specs
    fade, the two gains come from one ``standard_normal(4)``, which uses the
    stream exactly as two ``realize`` calls would (C-order fill).  A fixed
    spec draws nothing, so two fixed specs need no stream (``rng`` None)."""
    if type(forward_rf) is RayleighFadingChannel and type(reverse_rf) is RayleighFadingChannel:
        f_re, f_im, r_re, r_im = rng.generator.standard_normal(4).tolist()
        g_forward = complex_normal_from(f_re, f_im, 0j, forward_rf.variance)
        g_reverse = complex_normal_from(r_re, r_im, 0j, reverse_rf.variance)
    else:
        g_forward = forward_rf.realize(rng)
        g_reverse = reverse_rf.realize(rng)
    h_tr = reader.h_tx * g_forward * tag.h_rx
    h_rt = tag.h_tx * g_reverse * reader.h_rx
    return LinkRealization(h_tr=h_tr, h_rt=h_rt)

