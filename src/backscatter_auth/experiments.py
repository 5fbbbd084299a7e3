"""Monte Carlo engine and ROC sweep generation.

Detector performance depends on the scenario only through the estimation
error variance (equivalently SINR and training length) and the fingerprint
distance, so experiments are parameterized by (sinr_db, n_train, mu_mag).
``ExperimentConfig.from_raw`` reduces the raw ``TxParams`` and
``LinkNoiseParams`` of a signaling section to that form.

Each config builds its canonical scenario once and keeps it as
``config.scenario``: unit reader power, unit aggregate noise variance, tag
amplification set from the SINR, unit-modulus training, fixed (non-fading)
propagation, enrolled fingerprint equal to the legitimate link's realized
residual.  That scenario's estimation-error variance is the one value
behind a run's analytic curves, its thresholds and the engine's draws.

There is one frame path: ``simulate_estimates`` draws the responses to
``trials`` exchanges of the all-ones challenge (``signaling.exchange``) and
projects them (``estimation.ls_estimate``), and an authentication episode
(``run_trial``) is its one-trial case.  The engine draws the sufficient
statistic instead of the frame: for any training frame the LS estimate is
``h_res + e`` with ``e ~ CN(0, v)`` and ``v`` the closed-form
estimation-error variance, so each trial costs one complex normal whatever
``n_train`` is.  ``validate`` certifies the kernel against the frame path
by distribution, not bit for bit.

Trials are split into fixed-size shards, each drawing from its own
deterministically derived random stream, and run in order on the calling
thread; shards merge by integer rejection counts, so results depend only on
the config and the seed.

A config's ``digest`` (the manifest's ``config_digest``) is SHA-256 from
CPython's standalone ``_sha2``/``_sha256`` module, with ``hashlib`` only as a
fallback: ``hashlib`` maps OpenSSL's libcrypto, and nothing else that an
analytic run (``sweep``, ``roc`` without trials) imports needs it, so the
standalone module keeps libcrypto out of those runs (README "Footprint").

A result is a ``RocCurve``: read-only pfa, pd and stderr columns plus the
curve's kind (analytic or empirical).  ``sweep_attacker`` computes its
(distance, pfa) grid of pd in one call and makes each row a curve;
``roc_analytic`` is its one-distance case.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

try:  # hashlib maps OpenSSL's libcrypto for this one digest
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .channel import DeviceModel, FixedChannel, LinkRealization, make_link
from .detection import (
    analytic_pd,
    authenticate,
    design_threshold,
    fingerprint_distance,
)
from .errors import ConfigurationError, ParameterError
from .estimation import FingerprintEstimate, estimation_error_variance, ls_estimate
from .rng import RngHandle, sample_complex_normal_array
from .signaling import LinkNoiseParams, SignalFrame, TxParams, exchange

SHARD_TRIALS = 16384

_H0, _H1 = 0, 1


def checked_pfa_grid(values) -> tuple[float, ...]:
    """The false-alarm grid as floats: nonempty, inside (0, 1), strictly
    increasing."""
    grid = tuple(float(p) for p in values)
    if not grid:
        raise ConfigurationError("pfa_grid must be nonempty")
    for p in grid:
        if not (0.0 < p < 1.0):
            raise ConfigurationError(f"pfa_grid values must lie strictly in (0, 1), got {p!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("pfa_grid must be strictly increasing")
    return grid


def checked_mu_mag(value) -> float:
    """The attacker's fingerprint distance as a float: finite and >= 0."""
    if not math.isfinite(value) or value < 0.0:
        raise ConfigurationError(f"mu_mag must be >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One ROC experiment: operating point, grid, and Monte Carlo budget.

    trials = 0 is accepted and means "analytic only"; the empirical engine
    refuses to run on it.  n_train, trials and seed must be integers
    (numpy's included); a float is refused even when integral.
    """

    sinr_db: float
    n_train: int
    mu_mag: float
    pfa_grid: tuple[float, ...]
    trials: int
    seed: int
    scenario: Scenario = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # first: the scenario below carries the attacker at this distance
        object.__setattr__(self, "mu_mag", checked_mu_mag(self.mu_mag))
        if not math.isfinite(self.sinr_db):
            raise ConfigurationError(f"sinr_db must be finite, got {self.sinr_db!r}")
        for name in ("n_train", "trials", "seed"):
            value = getattr(self, name)
            try:  # 8.9 is refused, not truncated to 8
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if self.n_train < 1:
            raise ConfigurationError(f"n_train must be >= 1, got {self.n_train!r}")
        object.__setattr__(self, "pfa_grid", checked_pfa_grid(self.pfa_grid))
        try:  # built once: its variance is the one value of every run of this config
            scenario = canonical_scenario(self.sinr_db, self.n_train, self.mu_mag)
            # the largest threshold, at the smallest pfa; refuses a variance
            # that is not a finite positive double as well
            largest_threshold = design_threshold(self.pfa_grid[0], scenario.est_variance)
        except (OverflowError, ParameterError):  # 10**x or eta**2 overflows, or eta is 0.0
            largest_threshold = math.inf
        if not largest_threshold < math.inf:
            raise ConfigurationError(
                f"sinr_db = {self.sinr_db!r} puts the SINR, the estimation variance or the "
                "largest decision threshold outside the finite positive doubles")
        object.__setattr__(self, "scenario", scenario)
        if self.trials < 0:
            raise ConfigurationError(f"trials must be >= 0, got {self.trials!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    @property
    def est_variance(self) -> float:
        """Estimation-error variance of the config's canonical scenario
        (unit-modulus training of length n_train): the one value behind the
        analytic curves, the engine's thresholds and its draws."""
        return self.scenario.est_variance

    @classmethod
    def from_raw(cls, tx: TxParams, noise: LinkNoiseParams, **fields) -> "ExperimentConfig":
        """Reduce raw physical parameters to the (SINR, N, mu) form; `fields`
        are the remaining fields (n_train, mu_mag, pfa_grid, trials, seed)."""
        if noise.total_variance <= 0.0:
            raise ConfigurationError("total noise variance must be > 0 to define an SINR")
        try:
            sinr = tx.eta**2 * tx.p_r / noise.total_variance
        except OverflowError:  # a float ** raises where * would give inf
            sinr = math.inf
        if not 0.0 < sinr < math.inf:
            raise ConfigurationError(
                f"signaling p_r = {tx.p_r!r}, eta = {tx.eta!r} over a noise variance of "
                f"{noise.total_variance!r} put the SINR outside the finite positive doubles")
        return cls(sinr_db=10.0 * math.log10(sinr), **fields)

    def digest(self) -> str:
        payload = json.dumps(
            {
                "sinr_db": self.sinr_db,
                "n_train": self.n_train,
                "mu_mag": self.mu_mag,
                "pfa_grid": list(self.pfa_grid),
                "trials": self.trials,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return sha256(payload.encode()).hexdigest()[:16]


class RocKind(enum.Enum):
    ANALYTIC = "analytic"
    EMPIRICAL = "empirical"


@dataclass(frozen=True, eq=False)
class RocCurve:
    """One ROC as columns: pd and its standard error at each grid pfa.

    Each column is a read-only 1-D float64 copy of what was passed; the
    columns have one length and pfa is strictly ascending.  Curves compare
    by column, not with ``==``.
    """

    pfa: np.ndarray
    pd: np.ndarray
    stderr: np.ndarray
    kind: RocKind

    def __post_init__(self):
        for name in ("pfa", "pd", "stderr"):
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.ndim != 1:
                raise ConfigurationError(f"ROC column {name} must be 1-D, got shape {column.shape}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not self.pfa.size == self.pd.size == self.stderr.size:
            raise ConfigurationError(
                f"ROC columns must have one length, got pfa {self.pfa.size}, "
                f"pd {self.pd.size}, stderr {self.stderr.size}")
        if np.any(self.pfa[1:] <= self.pfa[:-1]):
            raise ConfigurationError("ROC points must be sorted by pfa ascending")


@dataclass(frozen=True)
class Scenario:
    """Fully realized devices, links, and signaling parameters for one run."""

    reader: DeviceModel
    legit_tag: DeviceModel
    malicious_tag: DeviceModel
    legit_link: LinkRealization
    attack_link: LinkRealization
    tx: TxParams
    noise: LinkNoiseParams
    n_train: int
    est_variance: float

    @property
    def ground_truth(self) -> complex:
        """Enrolled fingerprint: the legitimate link's realized residual."""
        return self.legit_link.h_res

    def link_for(self, hypothesis: int) -> LinkRealization:
        return self.legit_link if hypothesis == _H0 else self.attack_link


def build_scenario(reader: DeviceModel, legit_tag: DeviceModel,
                   malicious_tag: DeviceModel, tx: TxParams,
                   noise: LinkNoiseParams, n_train: int) -> Scenario:
    """Link both tags to the reader over unit fixed propagation, so the
    residuals carry only the device fingerprints; the estimation-error
    variance is that of the unit-modulus challenge of length n_train, whose
    energy is n_train (the frame itself is not built, so a scenario's memory
    does not grow with n_train).  Fixed channels draw nothing, so the links
    take no random stream."""
    unit = FixedChannel(1 + 0j)
    return Scenario(
        reader=reader,
        legit_tag=legit_tag,
        malicious_tag=malicious_tag,
        legit_link=make_link(reader, legit_tag, unit, unit, None),
        attack_link=make_link(reader, malicious_tag, unit, unit, None),
        tx=tx,
        noise=noise,
        n_train=int(n_train),
        est_variance=estimation_error_variance(tx, noise, float(n_train)),
    )


def canonical_scenario(sinr_db: float, n_train: int, mu_mag: float) -> Scenario:
    """Unit-power, unit-noise scenario hitting the requested SINR (the tag
    amplification is sqrt(SINR)), with the malicious tag's transmit chain
    offset so the residual distance is mu_mag."""
    return build_scenario(
        reader=DeviceModel(h_tx=1 + 0j, h_rx=1 + 0j),
        legit_tag=DeviceModel(h_tx=1 + 0j, h_rx=1 + 0j),
        # independent transmit chain, never derived from the legitimate tag's
        malicious_tag=DeviceModel(h_tx=(1.0 + mu_mag) + 0j, h_rx=1 + 0j),
        tx=TxParams(p_r=1.0, eta=math.sqrt(10.0 ** (sinr_db / 10.0))),
        noise=LinkNoiseParams(sigma2_r=0.5, sigma2_si_r=0.25, sigma2_si_t=0.25),
        n_train=n_train,
    )


def run_trial(scenario: Scenario, link: LinkRealization, target_pfa: float,
              rng: RngHandle):
    """One challenge-response-estimate-decide episode: the one-trial case of
    `simulate_estimates`, its estimate paired with the scenario's error
    variance.  `authenticate` derives the threshold from that variance and
    target_pfa, and tests the estimate against the enrolled fingerprint."""
    estimate = FingerprintEstimate(complex(simulate_estimates(scenario, link, 1, rng)[0]),
                                   scenario.est_variance)
    return estimate, authenticate(estimate, scenario.ground_truth, target_pfa)


def simulate_estimates(
    scenario: Scenario, link: LinkRealization, trials: int, rng: RngHandle
) -> np.ndarray:
    """Full-frame LS estimates over `trials` independent exchanges of the
    scenario's all-ones challenge: the oracle the engine's kernel is
    certified against.  Trial t draws as the t-th of `trials` one-trial
    calls on the same handle would."""
    challenge = SignalFrame.all_ones(scenario.n_train)
    responses = exchange(challenge, link, scenario.tx, scenario.noise, rng, trials)
    return ls_estimate(challenge, responses, scenario.tx)


def simulate_statistics(
    scenario: Scenario, link: LinkRealization, trials: int, rng: RngHandle
) -> np.ndarray:
    """Test statistics |estimate - ground truth| over `trials` exchanges,
    drawn from the estimate's law CN(h_res, est_variance): one complex
    normal (two standard normals) per trial, whatever n_train is."""
    est = sample_complex_normal_array(rng, link.h_res, scenario.est_variance, trials)
    return fingerprint_distance(est, scenario.ground_truth)


def _shard_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, SHARD_TRIALS)
    return [SHARD_TRIALS] * full + ([rest] if rest else [])


def empirical_rejection_counts(
    config: ExperimentConfig, hypothesis: str = "h1"
) -> np.ndarray:
    """Integer rejection counts per pfa-grid threshold, merged over shards.

    hypothesis "h0" runs the legitimate link (counts are false alarms),
    "h1" the attack link (counts are detections).
    """
    if config.trials < 1:
        raise ParameterError("empirical run requires trials >= 1")
    h_idx = {"h0": _H0, "h1": _H1}.get(hypothesis)
    if h_idx is None:
        raise ParameterError(f"hypothesis must be 'h0' or 'h1', got {hypothesis!r}")

    scenario = config.scenario
    link = scenario.link_for(h_idx)
    thresholds = np.array(
        [design_threshold(p, scenario.est_variance) for p in config.pfa_grid]
    )
    root = RngHandle(config.seed).spawn(h_idx)
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for index, size in enumerate(_shard_sizes(config.trials)):
        stats = simulate_statistics(scenario, link, size, root.spawn(index))
        stats.sort()
        # ties reject: statistic == threshold counts as a rejection
        counts += size - np.searchsorted(stats, thresholds, side="left")
    return counts


def empirical_rejection_rates(
    config: ExperimentConfig, hypothesis: str = "h1"
) -> np.ndarray:
    return empirical_rejection_counts(config, hypothesis) / config.trials


def roc_analytic(config: ExperimentConfig) -> RocCurve:
    """Closed-form ROC at the config's fingerprint distance: the
    one-distance case of ``sweep_attacker``."""
    return sweep_attacker(config, [config.mu_mag])[0]


def roc_empirical(config: ExperimentConfig) -> RocCurve:
    """Monte Carlo ROC from the engine's trials under the attack hypothesis,
    with the binomial standard error sqrt(pd (1 - pd) / trials) per point."""
    pd = empirical_rejection_rates(config, hypothesis="h1")
    return RocCurve(pfa=config.pfa_grid, pd=pd, stderr=np.sqrt(pd * (1.0 - pd) / config.trials),
                    kind=RocKind.EMPIRICAL)


def sweep_attacker(base: ExperimentConfig, mu_grid) -> list[RocCurve]:
    """Analytic ROC curves over attacker fingerprint distances, SINR held;
    each distance is checked as a config's mu_mag is.  pd = Q1 at the
    threshold designed for each grid pfa, read directly rather than as
    1 - missed-detection probability.  The variance and the thresholds are
    computed once, every (distance, pfa) point in one Marcum grid call, and
    each row of that grid is one curve."""
    mus = [checked_mu_mag(float(mu)) for mu in mu_grid]
    if not mus:
        raise ParameterError("mu_grid must be nonempty")
    v = base.est_variance
    thresholds = np.array([design_threshold(pfa, v) for pfa in base.pfa_grid])
    pd = analytic_pd(np.array(mus)[:, None], thresholds, v)
    pfa, zeros = np.array(base.pfa_grid), np.zeros(thresholds.size)
    return [RocCurve(pfa=pfa, pd=row, stderr=zeros, kind=RocKind.ANALYTIC) for row in pd]
