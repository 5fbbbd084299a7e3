"""Monte Carlo engine and ROC sweep generation.

Detector performance depends on the scenario only through the estimation
error variance (equivalently SINR and training length) and the fingerprint
distance, so experiments are parameterized by (sinr_db, n_train, mu_mag).
Raw physical parameters are accepted and reduced via
``ExperimentConfig.from_raw``.

The canonical scenario behind every run: unit reader power, unit aggregate
noise variance, tag amplification set from the SINR, unit-modulus training,
fixed (non-fading) propagation, enrolled fingerprint equal to the
legitimate link's realized residual.

The engine draws the sufficient statistic, not the frame: for any
training frame the LS estimate is ``h_res + e`` with ``e ~ CN(0, v)`` and
``v`` the closed-form estimation-error variance, so each trial costs one
complex normal whatever ``n_train`` is.  The per-trial pipeline
(``run_trial``) and its batched twin ``simulate_estimates`` are the
reference; ``validate`` certifies the kernel against them by distribution,
not bit for bit.

Trials are split into fixed-size shards, each drawing from its own
deterministically derived random stream; shards merge by integer rejection
counts, so results are independent of worker count and scheduling.  The
``BACKSCATTER_AUTH_THREADS`` environment variable caps worker parallelism
(0 or unset = auto).
"""

from __future__ import annotations

import concurrent.futures
import enum
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channel import DeviceModel, FixedChannel, LinkRealization, Role, make_link
from .detection import (
    DetectorConfig,
    analytic_pd,
    authenticate,
    design_threshold,
    fingerprint_distance,
)
from .errors import ConfigurationError, ParameterError
from .estimation import effective_training, estimation_error_variance, ls_estimate
from .rng import RngHandle, sample_complex_normal_array
from .signaling import LinkNoiseParams, SignalFrame, TxParams, exchange, response_gain

SHARD_TRIALS = 16384
THREADS_ENV_VAR = "BACKSCATTER_AUTH_THREADS"

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One ROC experiment: operating point, grid, and Monte Carlo budget.

    trials = 0 is accepted and means "analytic only"; the empirical engine
    refuses to run on it.
    """

    sinr_db: float
    n_train: int
    mu_mag: float
    pfa_grid: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.sinr_db):
            raise ConfigurationError(f"sinr_db must be finite, got {self.sinr_db!r}")
        if int(self.n_train) < 1:
            raise ConfigurationError(f"n_train must be >= 1, got {self.n_train!r}")
        object.__setattr__(self, "n_train", int(self.n_train))
        if not math.isfinite(self.mu_mag) or self.mu_mag < 0.0:
            raise ConfigurationError(f"mu_mag must be >= 0, got {self.mu_mag!r}")
        object.__setattr__(self, "pfa_grid", checked_pfa_grid(self.pfa_grid))
        if int(self.trials) < 0:
            raise ConfigurationError(f"trials must be >= 0, got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def est_variance(self) -> float:
        """Estimation-error variance of the canonical scenario (unit-modulus
        training of length n_train): the one value behind the analytic
        curves, the engine's thresholds and its draws."""
        return scenario_for(self).est_variance

    @classmethod
    def from_raw(
        cls,
        p_r: float,
        eta: float,
        sigma2_r: float,
        sigma2_si_r: float,
        sigma2_si_t: float,
        n_train: int,
        mu_mag: float,
        pfa_grid: tuple[float, ...],
        trials: int,
        seed: int,
    ) -> "ExperimentConfig":
        """Reduce raw physical parameters to the (SINR, N, mu) form."""
        tx = TxParams(p_r=p_r, eta=eta)
        noise = LinkNoiseParams(sigma2_r, sigma2_si_r, sigma2_si_t)
        if noise.total_variance <= 0.0:
            raise ConfigurationError("total noise variance must be > 0 to define an SINR")
        sinr = tx.eta**2 * tx.p_r / noise.total_variance
        return cls(
            sinr_db=10.0 * math.log10(sinr),
            n_train=n_train,
            mu_mag=mu_mag,
            pfa_grid=pfa_grid,
            trials=trials,
            seed=seed,
        )

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
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RocKind(enum.Enum):
    ANALYTIC = "analytic"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class RocPoint:
    pfa: float
    pd: float
    kind: RocKind
    stderr: float = 0.0


@dataclass(frozen=True)
class RocCurve:
    points: tuple[RocPoint, ...]
    config_digest: str

    def __post_init__(self):
        pfas = [p.pfa for p in self.points]
        if any(b <= a for a, b in zip(pfas, pfas[1:])):
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
    variance is that of the unit-modulus challenge of length n_train."""
    rng = RngHandle(0)  # fixed channels: realization ignores the stream
    unit = FixedChannel(1 + 0j)
    return Scenario(
        reader=reader,
        legit_tag=legit_tag,
        malicious_tag=malicious_tag,
        legit_link=make_link(reader, legit_tag, unit, unit, rng),
        attack_link=make_link(reader, malicious_tag, unit, unit, rng),
        tx=tx,
        noise=noise,
        n_train=int(n_train),
        est_variance=estimation_error_variance(
            tx, noise, SignalFrame.all_ones(n_train).energy),
    )


def canonical_scenario(sinr_db: float, n_train: int, mu_mag: float) -> Scenario:
    """Unit-power, unit-noise scenario hitting the requested SINR, with the
    malicious tag's transmit chain offset so the residual distance is mu_mag."""
    return build_scenario(
        reader=DeviceModel(h_tx=1 + 0j, h_rx=1 + 0j, role=Role.READER),
        legit_tag=DeviceModel(h_tx=1 + 0j, h_rx=1 + 0j, role=Role.LEGIT_TAG),
        # independent transmit chain, never derived from the legitimate tag's
        malicious_tag=DeviceModel(h_tx=(1.0 + mu_mag) + 0j, h_rx=1 + 0j,
                                  role=Role.MALICIOUS_TAG),
        tx=TxParams(p_r=1.0, eta=math.sqrt(10.0 ** (sinr_db / 10.0))),
        noise=LinkNoiseParams(sigma2_r=0.5, sigma2_si_r=0.25, sigma2_si_t=0.25),
        n_train=n_train,
    )


def scenario_for(config: ExperimentConfig) -> Scenario:
    return canonical_scenario(config.sinr_db, config.n_train, config.mu_mag)


def run_trial(scenario: Scenario, link: LinkRealization, target_pfa: float,
              rng: RngHandle):
    """One full challenge-response-estimate-decide episode: the reference
    per-trial path.  The challenge's invariants (the shared all-ones frame,
    its energy and its effective training) are computed once per
    (n_train, tx), not per episode, and `simulate_estimates` reads the same
    cached values, so it stays bit-identical to a loop of this function; the
    engine's kernel matches it in distribution only."""
    challenge = SignalFrame.all_ones(scenario.n_train)
    response = exchange(challenge, link, scenario.tx, scenario.noise, rng)
    estimate = ls_estimate(challenge, response, scenario.tx, scenario.noise)
    config = DetectorConfig(
        ground_truth=scenario.ground_truth,
        est_variance=scenario.est_variance,
        target_pfa=target_pfa,
    )
    return estimate, authenticate(estimate, config)


def simulate_estimates(
    scenario: Scenario, link: LinkRealization, trials: int, rng: RngHandle
) -> np.ndarray:
    """Batched full-frame LS estimates over `trials` independent exchanges.

    Consumes the random stream exactly like `trials` successive calls of
    the per-trial pipeline on the same handle, and returns the same values:
    the oracle the engine's kernel is certified against.
    """
    challenge = SignalFrame.all_ones(scenario.n_train)
    x = challenge.symbols
    gain = response_gain(link, scenario.tx)
    y = sample_complex_normal_array(
        rng, 0j, scenario.noise.total_variance, (int(trials), x.size)
    )
    y += gain * x  # the noise buffer takes the response in place, as in exchange
    x_conj, energy = effective_training(challenge, scenario.tx)
    return (x_conj * y).sum(axis=1) / energy


def simulate_statistics(
    scenario: Scenario, link: LinkRealization, trials: int, rng: RngHandle
) -> np.ndarray:
    """Test statistics |estimate - ground truth| over `trials` exchanges,
    drawn from the estimate's law CN(h_res, est_variance): one complex
    normal (two standard normals) per trial, whatever n_train is."""
    est = sample_complex_normal_array(rng, link.h_res, scenario.est_variance, int(trials))
    return fingerprint_distance(est, scenario.ground_truth)


def _worker_count(n_shards: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "0").strip()
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if requested < 0:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be >= 0, got {requested}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, n_shards))


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

    scenario = scenario_for(config)
    link = scenario.link_for(h_idx)
    thresholds = np.array(
        [design_threshold(p, scenario.est_variance) for p in config.pfa_grid]
    )
    root = RngHandle(config.seed).spawn(h_idx)
    sizes = _shard_sizes(config.trials)

    def shard_counts(item: tuple[int, int]) -> np.ndarray:
        index, size = item
        stats = simulate_statistics(scenario, link, size, root.spawn(index))
        stats.sort()
        # ties reject: statistic == threshold counts as a rejection
        accepted = np.searchsorted(stats, thresholds, side="left")
        return (size - accepted).astype(np.int64)

    items = list(enumerate(sizes))
    workers = _worker_count(len(items))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(shard_counts, items))
    else:
        parts = [shard_counts(item) for item in items]
    return np.sum(parts, axis=0, dtype=np.int64)


def empirical_rejection_rates(
    config: ExperimentConfig, hypothesis: str = "h1"
) -> np.ndarray:
    return empirical_rejection_counts(config, hypothesis) / config.trials


def roc_analytic(config: ExperimentConfig) -> RocCurve:
    """Closed-form ROC: pd = Q1 at the threshold designed for each grid pfa,
    read directly rather than as 1 - missed-detection probability."""
    v = config.est_variance
    points = []
    for pfa in config.pfa_grid:
        delta = design_threshold(pfa, v)
        pd = analytic_pd(config.mu_mag, delta, v)
        points.append(RocPoint(pfa=pfa, pd=pd, kind=RocKind.ANALYTIC, stderr=0.0))
    return RocCurve(points=tuple(points), config_digest=config.digest())


def roc_empirical(config: ExperimentConfig) -> RocCurve:
    """Monte Carlo ROC from the engine's trials under the attack hypothesis."""
    rates = empirical_rejection_rates(config, hypothesis="h1")
    points = tuple(
        RocPoint(
            pfa=pfa,
            pd=float(pd),
            kind=RocKind.EMPIRICAL,
            stderr=math.sqrt(pd * (1.0 - pd) / config.trials),
        )
        for pfa, pd in zip(config.pfa_grid, rates)
    )
    return RocCurve(points=points, config_digest=config.digest())


def sweep_attacker(base: ExperimentConfig, mu_grid) -> list[RocCurve]:
    """Analytic ROC curves over attacker fingerprint distances, SINR held;
    each distance is checked as the config's mu_mag."""
    mu_values = list(mu_grid)
    if not mu_values:
        raise ParameterError("mu_grid must be nonempty")
    return [roc_analytic(replace(base, mu_mag=float(mu))) for mu in mu_values]
