"""Benchmark workloads: what each one loads, why it exists, and how its
input files are generated from the benchmark seed.

The three workloads load the package's hot paths separately.  The
Monte Carlo engine's cost grows with n_train; the analytic ROC's cost is
set by Marcum Q1, which grows linearly in its first argument; and a single
authentication episode runs the scalar per-trial path that the engine
bypasses.  Set-up (import + config load) is measured on every workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

PFA_GRID = "linspace:0.01:0.99:50"
# 16 log-spaced attacker distances from 0.01 to 10
MU_SWEEP = tuple(10.0 ** (-2.0 + 3.0 * k / 15.0) for k in range(16))
# one config per Monte Carlo seed; roc ops cycle through them
ROC_CONFIGS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "roc", "sweep" or "auth"
    sinr_db: float
    n_train: int
    trials: int  # per roc op, a whole number of 16384-trial shards; 0 = analytic only
    work_unit: str  # what work_per_s (ungated) counts on this workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-long-frame",
            why="engine worst case: roc at n_train=64, so normal draws, complex assembly "
                "and the LS projection dominate; the thread pool has 4 shards to spread",
            kind="roc", sinr_db=5.0 - 10.0 * math.log10(64.0), n_train=64,
            trials=4 * 16384, work_unit="trials"),
        Workload(
            "analytic-strong-attacker",
            why="sweep with trials=0 at 30 dB, n_train=64: 800 analytic points with Marcum "
                "a from 3.6 to 3578 (b <= a), so Marcum Q1's linear-in-a cost dominates",
            kind="sweep", sinr_db=30.0, n_train=64,
            trials=0, work_unit="points"),
        Workload(
            "auth-episodes",
            why="closed loop of single run_trial episodes over fresh Rayleigh links at 5 dB, "
                "n_train=16, timed in bursts of 1000: the per-authentication path a reader runs",
            kind="auth", sinr_db=5.0, n_train=16,
            trials=0, work_unit="episodes"),
    )
}

TARGET_PFA = 0.01  # auth-episodes detector design point

# Per-layer metric -> the end-to-end metric (and workload) it should move.
LAYER_MOVES = {
    "setup.import_s": "setup_s on every workload",
    "setup.config_load_s": "setup_s on every workload",
    "config.load_s": "op_p90_ms on the roc and sweep workloads (cli.main reloads per op)",
    "cli.write_s": "op_p90_ms on analytic-strong-attacker (16 CSVs per op)",
    "experiments.analytic_s": "op_p90_ms on analytic-strong-attacker",
    "detection.threshold_s": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_s": "op_p90_ms on analytic-strong-attacker; <5% of mc-long-frame ops",
    "special.marcum_calls": "op_p90_ms on analytic-strong-attacker (exact count per op)",
    "special.marcum_calls.b_le_a": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_calls.b_gt_a": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_us.a_lt_10": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_us.a_10_100": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_us.a_100_1000": "op_p90_ms on analytic-strong-attacker",
    "special.marcum_us.a_ge_1000": "op_p90_ms on analytic-strong-attacker",
    "detection.pmd_tail_lost": "none (correctness count: analytic_pmd 0.0 where the oracle is >= 1e-300)",
    "experiments.empirical_s": "op_p90_ms on mc-long-frame",
    "experiments.empirical_1thread_s": "op_p90_ms on mc-long-frame (1-thread baseline)",
    "experiments.parallel_speedup": "op_p90_ms on mc-long-frame",
    "experiments.shards": "op_p90_ms on mc-long-frame (per-shard overhead)",
    "experiments.workers": "op_p90_ms on mc-long-frame",
    "experiments.unaccounted_s": "op_p90_ms on mc-long-frame (merge and loop time)",
    "rng.spawn_s": "op_p90_ms on mc-long-frame",
    "rng.draw_s": "op_p90_ms, peak_rss_mib on mc-long-frame",
    "rng.normals_per_trial": "op_p90_ms, peak_rss_mib on mc-long-frame (a kernel would cut it to 2)",
    "rng.bytes_drawn_computed": "peak_rss_mib on mc-long-frame",
    "experiments.assemble_project_s": "op_p90_ms, peak_rss_mib on mc-long-frame",
    "detection.distance_s": "op_p90_ms on mc-long-frame",
    "experiments.sort_count_s": "op_p90_ms on mc-long-frame",
    "channel.make_link_s": "op_p90_ms, op_tail_ms on auth-episodes",
    "channel.make_link_us": "op_p90_ms, op_tail_ms on auth-episodes",
    "signaling.exchange_s": "op_p90_ms, op_tail_ms on auth-episodes",
    "signaling.exchange_us": "op_p90_ms, op_tail_ms on auth-episodes",
    "estimation.ls_estimate_s": "op_p90_ms, op_tail_ms on auth-episodes",
    "estimation.ls_estimate_us": "op_p90_ms, op_tail_ms on auth-episodes",
    "detection.authenticate_s": "op_p90_ms, op_tail_ms on auth-episodes",
    "detection.authenticate_us": "op_p90_ms, op_tail_ms on auth-episodes",
    "experiments.run_trial_s": "op_p90_ms on auth-episodes",
    "trace.wall_s": "none (traced time per op that the _s layers partition)",
    "trace.overhead_s": "none (traced minus untraced op time)",
    "trace.ops": "none (traced ops measured)",
}


def _roc_config(w: Workload, seed: int) -> str:
    return (
        "[experiment]\n"
        f"sinr_db = {w.sinr_db!r}\n"
        f"n_train = {w.n_train}\n"
        "mu_mag = 1.0\n"
        f"pfa_grid = {PFA_GRID}\n"
        f"trials = {w.trials}\n"
        f"seed = {seed}\n"
    )


def _complex_gain(rnd: random.Random) -> complex:
    mag = rnd.uniform(0.5, 1.5)
    phase = rnd.uniform(-math.pi, math.pi)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def _auth_config(w: Workload, rnd: random.Random) -> str:
    gains = "".join(
        f"{role}_{chain} = {_complex_gain(rnd)!r}\n".replace("(", "").replace(")", "")
        for role in ("reader", "ltag", "mtag")
        for chain in ("h_tx", "h_rx")
    )
    # unit total noise, so eta^2 * p_r is the SINR
    eta = math.sqrt(10.0 ** (w.sinr_db / 10.0))
    return (
        "[device]\n" + gains +
        "\n[signaling]\n"
        "p_r = 1.0\n"
        f"eta = {eta!r}\n"
        "sigma2_r = 0.5\n"
        "sigma2_si_r = 0.25\n"
        "sigma2_si_t = 0.25\n"
        "\n[detector]\n"
        f"target_pfa = {TARGET_PFA!r}\n"
        "\n[experiment]\n"
        f"n_train = {w.n_train}\n"
        f"seed = {rnd.getrandbits(63)}\n"
    )


@dataclass(frozen=True)
class Inputs:
    configs: tuple[Path, ...]
    mu_list: str  # sweep only: the --mu-list argument


def write_inputs(w: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's config files from the benchmark seed.

    The seed picks Monte Carlo seeds, device gains and the order of the mu
    list; it never changes the amount of work an op does.
    """
    rnd = random.Random(f"{w.name}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    if w.kind == "roc":
        texts = [_roc_config(w, rnd.getrandbits(63)) for _ in range(ROC_CONFIGS)]
    elif w.kind == "sweep":
        texts = [_roc_config(w, rnd.getrandbits(63))]
    else:
        texts = [_auth_config(w, rnd)]
    paths = []
    for i, text in enumerate(texts):
        path = work_dir / f"{w.name}-{i}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    mus = list(MU_SWEEP)
    rnd.shuffle(mus)
    return Inputs(configs=tuple(paths), mu_list=",".join(repr(m) for m in mus))
