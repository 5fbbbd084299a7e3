"""The op each workload repeats, run in process through the package's
public calls, plus the record each op leaves for the output checks.

An op is one ``cli.main`` invocation of ``roc`` or ``sweep``, or a burst
of single authentication episodes through ``experiments.run_trial``.  Outputs are
recorded during the run and checked against the oracles in ``checks``
afterwards, so that scipy is not loaded while the program is measured.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import types
from array import array
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, patched
from workloads import TARGET_PFA, Inputs, Workload

THREADS_ENV = "BACKSCATTER_AUTH_THREADS"
AUTH_BURST = 1000  # episodes per auth-episodes op


def import_package(src: Path) -> types.SimpleNamespace:
    sys.path.insert(0, str(src))
    import backscatter_auth
    from backscatter_auth import (channel, cli, config, detection, estimation,
                                  experiments, rng, signaling, special)

    return types.SimpleNamespace(
        version=backscatter_auth.__version__, channel=channel, cli=cli,
        config=config, detection=detection, estimation=estimation,
        experiments=experiments, rng=rng, signaling=signaling, special=special)


def _marcum_band(a: float) -> str:
    if a < 10.0:
        return "a_lt_10"
    if a < 100.0:
        return "a_10_100"
    if a < 1000.0:
        return "a_100_1000"
    return "a_ge_1000"


def _count_marcum(tracer: Tracer):
    def after(args, result, dur):
        a, b = args[0], args[1]
        band = _marcum_band(a)
        tracer.tally["marcum.calls." + band] += 1
        tracer.tally["marcum.ns." + band] += dur
        tracer.tally["marcum.b_le_a" if b <= a else "marcum.b_gt_a"] += 1
    return after


def _count_normals(tracer: Tracer):
    def after(args, result, dur):
        tracer.tally["rng.normals"] += 2 * int(np.size(result))
    return after


class CliOps:
    """`roc` (mc-long-frame) or `sweep` (analytic-strong-attacker) via cli.main."""

    def __init__(self, pkg, w: Workload, inputs: Inputs, work_dir: Path):
        self.pkg, self.w = pkg, w
        self.mus = [float(m) for m in inputs.mu_list.split(",")]
        self.argv, self.out_dirs, self.configs = [], [], []
        for i, cfg in enumerate(inputs.configs):
            out = work_dir / f"out-{i}"
            if w.kind == "roc":
                self.argv.append(["roc", "--config", str(cfg), "--out", str(out)])
            else:
                self.argv.append(["sweep", "--config", str(cfg), "--mu-list", inputs.mu_list,
                                  "--out", str(out)])
            self.out_dirs.append(out)
            doc = pkg.config.load_config(cfg)
            self.configs.append(pkg.experiments.ExperimentConfig(
                sinr_db=doc.get_float("experiment", "sinr_db"),
                n_train=doc.get_int("experiment", "n_train"),
                mu_mag=doc.get_float("experiment", "mu_mag"),
                pfa_grid=doc.get_pfa_grid(),
                trials=doc.get_int("experiment", "trials"),
                seed=doc.get_int("experiment", "seed")))
        if w.kind == "roc":
            self.files = ["roc_analytic.csv", "roc_empirical.csv"]
            self.work_per_op = w.trials
        else:
            self.files = [f"roc_mu_{mu:.4f}.csv" for mu in self.mus]
            self.work_per_op = len(self.mus) * len(checks.pfa_grid())
        self.outputs: dict[tuple[int, tuple[str, ...]], int] = {}  # -> ops that wrote it
        self.failed = 0
        self.problems: list[str] = []  # per-op failures (first 20)
        self.run_problems: list[str] = []  # whole-run checks; none for cli ops
        self.max_workers = 0
        self._gap_start = None

    # -- one op ------------------------------------------------------------
    def run(self, i: int, tracer: Tracer | None = None) -> int:
        k = i % len(self.argv)
        cli = self.pkg.cli
        if tracer is None:
            t0 = time.perf_counter_ns()
            rc = cli.main(self.argv[k])
            dur = time.perf_counter_ns() - t0
        else:
            threads: set[int] = set()
            with patched(self._op_targets(tracer, threads)):
                tracer.open("cli.main")
                rc = cli.main(self.argv[k])
                dur = tracer.close()
            self.max_workers = max(self.max_workers, len(threads))
        texts = self._record(k, rc)
        if tracer is not None and self.w.kind == "roc" and texts is not None:
            self._engine_one_thread(k, tracer, texts[1])
        return dur

    def _record(self, k: int, rc: int):
        if rc != 0:
            self._fail(f"cli.main returned {rc}")
            return None
        out = self.out_dirs[k]
        try:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            texts = tuple((out / name).read_text(encoding="utf-8") for name in self.files)
        except (OSError, ValueError) as exc:
            self._fail(f"unreadable output: {exc}")
            return None
        if manifest.get("emitted_files") != self.files:
            self._fail("manifest does not list the expected files")
            return None
        key = (k, texts)
        self.outputs[key] = self.outputs.get(key, 0) + 1
        return texts

    def _fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    # -- checks, after the run ---------------------------------------------
    def check_outputs(self) -> None:
        grid = checks.pfa_grid()
        for (k, texts), ops in self.outputs.items():
            cfg = self.configs[k]
            problems = []
            try:
                curves = [checks.parse_roc_csv(t) for t in texts]
            except ValueError as exc:
                self._fail(f"malformed CSV: {exc}", ops)
                continue
            if self.w.kind == "roc":
                expected = checks.oracle_pd(cfg.mu_mag, cfg.sinr_db, cfg.n_train, grid)
                problems += checks.analytic_curve_problems(curves[0], expected)
                problems += checks.empirical_curve_problems(curves[1], expected, cfg.trials)
            else:
                for mu, curve in zip(self.mus, curves):
                    expected = checks.oracle_pd(mu, cfg.sinr_db, cfg.n_train, grid)
                    problems += checks.analytic_curve_problems(curve, expected)
            if problems:
                self._fail("; ".join(problems), ops)

    def pmd_tail_lost(self) -> int:
        """Points where detection.analytic_pmd returns 0.0 but the oracle's
        missed-detection probability is >= 1e-300."""
        det, cfg, grid = self.pkg.detection, self.configs[0], checks.pfa_grid()
        mus = self.mus if self.w.kind == "sweep" else [cfg.mu_mag]
        v = cfg.est_variance
        lost = 0
        for mu in mus:
            pmd = np.array([det.analytic_pmd(mu, det.design_threshold(p, v), v) for p in grid])
            oracle = checks.oracle_pmd(mu, cfg.sinr_db, cfg.n_train, grid)
            lost += int(np.sum((pmd == 0.0) & (oracle >= 1e-300)))
        return lost

    # -- tracing -----------------------------------------------------------
    def _op_targets(self, tracer: Tracer, threads: set[int]):
        p = self.pkg
        ex = p.experiments
        analytic = tracer.wrap(ex.roc_analytic, "experiments.analytic")
        simulate = ex.simulate_statistics

        def seen_by(*args, **kwargs):  # runs on pool threads: count only, no span
            threads.add(threading.get_ident())
            return simulate(*args, **kwargs)

        return [
            (p.cli, "load_config", tracer.wrap(p.cli.load_config, "config.load")),
            (p.cli, "roc_analytic", analytic),
            (ex, "roc_analytic", analytic),
            (p.cli, "roc_empirical", tracer.wrap(p.cli.roc_empirical, "experiments.empirical")),
            (ex, "design_threshold", tracer.wrap(ex.design_threshold, "detection.threshold")),
            (p.special, "marcum_q1",
             tracer.wrap(p.special.marcum_q1, "special.marcum", after=_count_marcum(tracer))),
            (ex, "simulate_statistics", seen_by),
        ]

    def _engine_one_thread(self, k: int, tracer: Tracer, empirical_csv: str) -> None:
        """The engine call behind the op, on one thread, with a span around
        each per-shard public call.  Sort and count have no public call: they
        are timed as the gap from a shard's statistics to the next spawn."""
        p, cfg = self.pkg, self.configs[k]
        ex = p.experiments
        spawn = tracer.wrap(p.rng.RngHandle.spawn, "rng.spawn")
        simulate = ex.simulate_statistics

        def spawn_after_gap(handle, index):
            self._close_gap(tracer)
            return spawn(handle, index)

        def simulate_then_gap(*args, **kwargs):
            stats = simulate(*args, **kwargs)
            self._gap_start = time.perf_counter_ns()
            return stats

        targets = [
            (p.rng.RngHandle, "spawn", spawn_after_gap),
            (ex, "simulate_statistics", simulate_then_gap),
            (ex, "simulate_estimates",
             tracer.wrap(ex.simulate_estimates, "experiments.assemble_project")),
            (ex, "sample_complex_normal_array",
             tracer.wrap(ex.sample_complex_normal_array, "rng.draw", after=_count_normals(tracer))),
            (ex, "fingerprint_distance", tracer.wrap(ex.fingerprint_distance, "detection.distance")),
            (ex, "design_threshold", tracer.wrap(ex.design_threshold, "detection.threshold")),
        ]
        os.environ[THREADS_ENV] = "1"
        try:
            with patched(targets):
                tracer.open("experiments.empirical_1thread")
                counts = ex.empirical_rejection_counts(cfg, "h1")
                self._close_gap(tracer)
                tracer.close()
        finally:
            del os.environ[THREADS_ENV]
        # the engine promises results independent of the worker count
        if not np.array_equal(counts / cfg.trials, checks.parse_roc_csv(empirical_csv)["pd"]):
            self._fail("1-thread engine counts differ from the op's empirical pd")

    def _close_gap(self, tracer: Tracer) -> None:
        if self._gap_start is not None:
            tracer.record("experiments.sort_count", self._gap_start, time.perf_counter_ns())
            self._gap_start = None


class AuthOps:
    """Bursts of single authentication episodes.  Each episode draws Rayleigh
    links with channel.make_link, enrolls the legitimate link's residual and
    runs one experiments.run_trial; legitimate and malicious responders
    alternate.  An op is a burst of AUTH_BURST back-to-back episodes: one
    episode takes ~60 us, and the 11th-slowest of ~10^5 episodes measures
    the host's millisecond stalls rather than the program.  Per-episode
    times are kept for the run's metadata."""

    def __init__(self, pkg, w: Workload, inputs: Inputs, work_dir: Path):
        self.pkg = pkg
        doc = pkg.config.load_config(inputs.configs[0])
        self.tx, self.noise = pkg.config.signaling_params(doc)
        self.reader = pkg.config.device_from(doc, "reader")
        self.ltag = pkg.config.device_from(doc, "ltag")
        self.mtag = pkg.config.device_from(doc, "mtag")
        self.n_train = doc.get_int("experiment", "n_train")
        self.target_pfa = doc.get_float("detector", "target_pfa")
        self.rng = pkg.rng.RngHandle(doc.get_int("experiment", "seed"))
        self.fading = pkg.channel.RayleighFadingChannel(1.0)
        challenge = pkg.signaling.SignalFrame.all_ones(self.n_train)
        self.est_variance = pkg.estimation.estimation_error_variance(
            self.tx, self.noise, challenge.energy)
        # the check's own threshold, from the workload's definition
        self.check_variance, self.threshold = checks.auth_threshold(
            w.sinr_db, w.n_train, TARGET_PFA)
        self.work_per_op = AUTH_BURST
        self.failed = 0
        self.problems: list[str] = []
        self.run_problems: list[str] = []
        self.legit_total = self.legit_accepts = self.attack_rejects = 0
        self.attack_distance = array("d")
        self.episode_ns = array("q")  # untraced episodes only
        self.max_workers = 0

    def run(self, i: int, tracer: Tracer | None = None) -> int:
        if tracer is None:
            t0 = time.perf_counter_ns()
            episodes = self._burst()
            dur = time.perf_counter_ns() - t0
            self.episode_ns.extend(e[0] for e in episodes)
        else:
            with patched(self._targets(tracer)):
                tracer.open("auth.burst")
                episodes = self._burst()
                dur = tracer.close()
        failed = [p for e in episodes for p in self._check(*e[1:])]
        if failed:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(failed[0])
        return dur

    def _burst(self) -> list[tuple]:
        ch, ex = self.pkg.channel, self.pkg.experiments
        episodes = []
        prev = time.perf_counter_ns()
        for j in range(AUTH_BURST):
            legit = ch.make_link(self.reader, self.ltag, self.fading, self.fading, self.rng)
            attack = j % 2 == 1
            link = ch.make_link(self.reader, self.mtag, self.fading, self.fading, self.rng) \
                if attack else legit
            scenario = ex.Scenario(
                reader=self.reader, legit_tag=self.ltag, malicious_tag=self.mtag,
                legit_link=legit, attack_link=link, tx=self.tx, noise=self.noise,
                n_train=self.n_train, est_variance=self.est_variance)
            estimate, decision = ex.run_trial(scenario, link, self.target_pfa, self.rng)
            now = time.perf_counter_ns()
            episodes.append((now - prev, attack, legit.h_res, link.h_res, estimate.value, decision))
            prev = now
        return episodes

    def _check(self, attack, enrolled, responder, estimate, decision) -> list[str]:
        if attack:
            self.attack_distance.append(abs(responder - enrolled))
            self.attack_rejects += not decision.accepted
        else:
            self.legit_total += 1
            self.legit_accepts += decision.accepted
        return checks.episode_problems(estimate, enrolled, decision.statistic,
                                       decision.accepted, decision.threshold_used,
                                       self.threshold)

    def check_outputs(self) -> None:
        """Whole-run rates; a failure here makes the run incorrect."""
        self.run_problems = checks.auth_run_problems(
            self.legit_accepts, self.legit_total, self.target_pfa,
            np.frombuffer(self.attack_distance, dtype=np.float64),
            self.attack_rejects, self.check_variance)

    def pmd_tail_lost(self) -> int:
        return 0  # the episode path never evaluates analytic_pmd

    def _targets(self, tracer: Tracer):
        p = self.pkg
        ex = p.experiments
        normals = _count_normals(tracer)
        return [
            (p.channel, "make_link", tracer.wrap(p.channel.make_link, "channel.make_link")),
            (ex, "run_trial", tracer.wrap(ex.run_trial, "experiments.run_trial")),
            (ex, "exchange", tracer.wrap(ex.exchange, "signaling.exchange")),
            (ex, "ls_estimate", tracer.wrap(ex.ls_estimate, "estimation.ls_estimate")),
            (ex, "authenticate", tracer.wrap(ex.authenticate, "detection.authenticate")),
            (p.detection, "design_threshold",
             tracer.wrap(p.detection.design_threshold, "detection.threshold")),
            (p.signaling, "sample_complex_normal_array",
             tracer.wrap(p.signaling.sample_complex_normal_array, "rng.draw", after=normals)),
            (p.channel, "sample_complex_normal",
             tracer.wrap(p.channel.sample_complex_normal, "rng.draw", after=normals)),
        ]
