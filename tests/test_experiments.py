"""Monte Carlo engine and ROC generation contracts."""

import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from backscatter_auth import experiments
from backscatter_auth.channel import (
    DeviceModel,
    RayleighFadingChannel,
    make_link,
)
from backscatter_auth.detection import design_threshold, fingerprint_distance
from backscatter_auth.errors import ConfigurationError, ParameterError
from backscatter_auth.experiments import (
    SHARD_TRIALS,
    ExperimentConfig,
    RocKind,
    canonical_scenario,
    empirical_rejection_counts,
    empirical_rejection_rates,
    roc_analytic,
    roc_empirical,
    run_trial,
    simulate_estimates,
    simulate_statistics,
    sweep_attacker,
)
from backscatter_auth.rng import RngHandle
from backscatter_auth.signaling import LinkNoiseParams, TxParams

SRC = Path(__file__).resolve().parent.parent / "src"
ROC_DEMO = SRC.parent / "configs" / "roc_demo.cfg"
GRID_50 = tuple(float(p) for p in np.linspace(0.01, 0.99, 50))
EPISODES_DIGEST = "f52d86510ac453bfe5e9b1d661eb901a294c5987e01452334eb5940b41ba4570"
# 200 episodes at each of n_train 8, 64 and 1000, frozen from the scalar
# per-episode exchange and projection that the one frame path replaced
LONG_EPISODES_DIGEST = "d140791717f8577423f729f22d3e898939ef1321535852c300c1948fd7c1a5c7"


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports the package
    from this checkout."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _config(**kw):
    defaults = dict(sinr_db=5.0, n_train=1, mu_mag=1.0,
                    pfa_grid=(0.05, 0.1, 0.3), trials=4096, seed=99)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_est_variance_formula(self):
        cfg = _config(sinr_db=5.0, n_train=8)
        assert cfg.est_variance == pytest.approx(1.0 / (10**0.5 * 8), rel=1e-14)
        # the config's variance is its canonical scenario's, to the last bit
        cfg = _config(sinr_db=7.3, n_train=1)
        assert cfg.est_variance == canonical_scenario(7.3, 1, cfg.mu_mag).est_variance

    def test_raw_parameter_reduction(self):
        cfg = ExperimentConfig.from_raw(
            TxParams(p_r=4.0, eta=0.5),
            LinkNoiseParams(sigma2_r=0.2, sigma2_si_r=0.2, sigma2_si_t=0.1),
            n_train=8, mu_mag=1.0, pfa_grid=(0.1,), trials=1, seed=0)
        sinr = 0.5**2 * 4.0 / 0.5
        assert cfg.sinr_db == pytest.approx(10 * math.log10(sinr), rel=1e-14)
        assert cfg.est_variance == pytest.approx(0.5 / (0.5**2 * 4.0 * 8), rel=1e-14)

    @pytest.mark.parametrize("sinr_db", [3100.0, -3100.0])
    def test_sinr_outside_the_double_range_rejected(self, sinr_db):
        # 10**310 overflows, and at 10**-310 the variance 1 / SINR does
        with pytest.raises(ConfigurationError, match=f"sinr_db = {sinr_db!r}"):
            _config(sinr_db=sinr_db)

    @pytest.mark.parametrize("eta", [1e200, 1e-200])
    def test_raw_sinr_outside_the_double_range_rejected(self, eta):
        # eta**2 raises OverflowError at 1e200; at 1e-200 the SINR is 0.0
        with pytest.raises(ConfigurationError, match=re.escape(f"eta = {eta!r}")):
            ExperimentConfig.from_raw(
                TxParams(p_r=1.0, eta=eta), LinkNoiseParams(sigma2_r=1.0),
                n_train=8, mu_mag=1.0, pfa_grid=(0.1,), trials=1, seed=0)

    def test_raw_zero_noise_rejected(self):
        with pytest.raises(ConfigurationError, match="total noise variance must be > 0"):
            ExperimentConfig.from_raw(
                TxParams(p_r=1.0, eta=1.0), LinkNoiseParams(),
                n_train=8, mu_mag=1.0, pfa_grid=(0.1,), trials=1, seed=0)

    def test_memory_does_not_grow_with_n_train(self):
        # the challenge energy is n_train itself: no frame of that length
        # is built, copied or cached
        tracemalloc.start()
        try:
            _config(n_train=10**6, trials=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("grid", [(), (0.0, 0.5), (0.5, 0.5), (0.3, 0.2), (0.5, 1.0)])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            _config(pfa_grid=grid)

    def test_bad_scalars_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(n_train=0)
        with pytest.raises(ConfigurationError, match="sinr_db must be finite"):
            _config(sinr_db=math.nan)
        with pytest.raises(ConfigurationError):
            _config(mu_mag=-1.0)
        with pytest.raises(ConfigurationError):
            _config(trials=-1)
        with pytest.raises(ConfigurationError):
            _config(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("n_train", 8.9), ("n_train", 8.0), ("trials", 2.5), ("seed", 3.7), ("seed", "3"),
    ])
    def test_non_integral_fields_rejected(self, field, value):
        # refused, not truncated: int(8.9) would quietly run n_train = 8
        with pytest.raises(ConfigurationError, match=field):
            _config(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        cfg = _config(n_train=np.int64(8), trials=np.uint32(2), seed=np.uint64(2**64 - 1))
        assert (cfg.n_train, cfg.trials, cfg.seed) == (8, 2, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.n_train, cfg.trials, cfg.seed))

    def test_analytic_only_budget_allowed(self):
        cfg = _config(trials=0)
        with pytest.raises(ParameterError):
            empirical_rejection_counts(cfg)

    def test_digest_is_stable_and_sensitive(self):
        assert _config().digest() == _config().digest()
        assert _config().digest() != _config(seed=100).digest()


class TestScenario:
    def test_attack_offset_equals_mu(self):
        scenario = canonical_scenario(sinr_db=5.0, n_train=4, mu_mag=0.75)
        assert scenario.ground_truth == 1 + 0j
        assert abs(scenario.attack_link.h_res - scenario.legit_link.h_res) == 0.75

    def test_sinr_normalization(self):
        scenario = canonical_scenario(sinr_db=10.0, n_train=2, mu_mag=0.0)
        sinr = scenario.tx.eta**2 * scenario.tx.p_r / scenario.noise.total_variance
        assert sinr == pytest.approx(10.0, rel=1e-12)
        assert scenario.est_variance == pytest.approx(1.0 / 20.0, rel=1e-12)


class TestEngineEquivalence:
    def test_frame_path_matches_per_trial_pipeline_bitwise(self):
        cfg = _config(trials=2048, n_train=8)
        scenario = cfg.scenario
        for link in (scenario.legit_link, scenario.attack_link):
            estimates = simulate_estimates(scenario, link, cfg.trials, RngHandle(5, (1,)))
            batched = fingerprint_distance(estimates, scenario.ground_truth)
            rng = RngHandle(5, (1,))
            looped_est = np.empty(cfg.trials, dtype=complex)
            looped = np.empty(cfg.trials)
            accepted = np.empty(cfg.trials, dtype=bool)
            for i in range(cfg.trials):
                estimate, decision = run_trial(scenario, link, 0.1, rng)
                looped_est[i] = estimate.value
                looped[i] = decision.statistic
                accepted[i] = decision.accepted
            np.testing.assert_array_equal(estimates, looped_est)
            np.testing.assert_array_equal(batched, looped)
            # decision rule consistency: batched counts use the same tie rule
            delta = design_threshold(0.1, scenario.est_variance)
            assert int(np.sum(batched >= delta)) == int(np.sum(~accepted))

    def test_seeded_episodes_pinned(self):
        # frozen digest of 2,000 run_trial episodes over fresh Rayleigh
        # links, legitimate and malicious responders alternating; guards the
        # per-authentication path (its stream use, the cached challenge
        # invariants, the LS arithmetic and the decision) against drift
        reader = DeviceModel(1 + 0j, 1 + 0j)
        ltag = DeviceModel(0.9 + 0.2j, 1.1 - 0.1j)
        mtag = DeviceModel(1.2 - 0.3j, 0.8 + 0.4j)
        fading = RayleighFadingChannel(1.0)
        digest = hashlib.sha256()
        for n_train in (1, 16):
            base = canonical_scenario(sinr_db=5.0, n_train=n_train, mu_mag=0.5)
            rng = RngHandle(6, (n_train,))
            for j in range(1000):
                legit = make_link(reader, ltag, fading, fading, rng)
                link = make_link(reader, mtag, fading, fading, rng) if j % 2 else legit
                scenario = replace(base, legit_link=legit, attack_link=link)
                estimate, decision = run_trial(scenario, link, 0.05, rng)
                digest.update(struct.pack(
                    "<4d?d", estimate.value.real, estimate.value.imag,
                    estimate.error_variance, decision.statistic, decision.accepted,
                    decision.threshold_used))
        assert digest.hexdigest() == EPISODES_DIGEST

    def test_seeded_long_frame_episodes_pinned(self):
        # the same episode loop at longer frames, where the projection sums
        # 8 to 1000 terms per response
        reader = DeviceModel(1 + 0j, 1 + 0j)
        ltag = DeviceModel(0.9 + 0.2j, 1.1 - 0.1j)
        mtag = DeviceModel(1.2 - 0.3j, 0.8 + 0.4j)
        fading = RayleighFadingChannel(1.0)
        digest = hashlib.sha256()
        for n_train in (8, 64, 1000):
            base = canonical_scenario(sinr_db=5.0, n_train=n_train, mu_mag=0.5)
            rng = RngHandle(7, (n_train,))
            for j in range(200):
                legit = make_link(reader, ltag, fading, fading, rng)
                link = make_link(reader, mtag, fading, fading, rng) if j % 2 else legit
                scenario = replace(base, legit_link=legit, attack_link=link)
                estimate, decision = run_trial(scenario, link, 0.05, rng)
                digest.update(struct.pack(
                    "<4d?d", estimate.value.real, estimate.value.imag,
                    estimate.error_variance, decision.statistic, decision.accepted,
                    decision.threshold_used))
        assert digest.hexdigest() == LONG_EPISODES_DIGEST

    @pytest.mark.parametrize("n_train", [1, 64])
    def test_kernel_draws_two_normals_per_trial(self, n_train):
        # the stream layout: one interleaved (re, im) pair per trial, so the
        # handle advances the same whatever the training length
        trials = 1000
        scenario = _config(n_train=n_train).scenario
        rng = RngHandle(5, (1,))
        simulate_statistics(scenario, scenario.attack_link, trials, rng)
        fresh = RngHandle(5, (1,))
        fresh.generator.standard_normal((trials, 2))
        np.testing.assert_array_equal(rng.generator.standard_normal(8),
                                      fresh.generator.standard_normal(8))

    def test_seeded_counts_pinned(self):
        # frozen from the one-draw kernel over three shards; guards the
        # stream layout, the shard split and the tie rule against drift
        cfg = _config(trials=SHARD_TRIALS * 2 + 100, n_train=8, mu_mag=0.3)
        np.testing.assert_array_equal(empirical_rejection_counts(cfg, "h1"),
                                      [15344, 19474, 26605])
        np.testing.assert_array_equal(empirical_rejection_counts(cfg, "h0"),
                                      [1689, 3338, 10076])

    def test_sharding_does_not_change_counts(self):
        # trials straddling several shards vs a single-shard budget
        cfg_multi = _config(trials=SHARD_TRIALS * 2 + 100)
        counts = empirical_rejection_counts(cfg_multi, "h1")
        assert counts.dtype == np.int64
        again = empirical_rejection_counts(cfg_multi, "h1")
        np.testing.assert_array_equal(counts, again)

    def test_counts_are_the_sum_of_independent_shards(self):
        # each shard draws from its own spawned stream, so the engine's
        # counts are the sum of shard counts computed one by one
        cfg = _config(trials=SHARD_TRIALS * 3 + 17)
        scenario = cfg.scenario
        thresholds = np.array([design_threshold(p, scenario.est_variance)
                               for p in cfg.pfa_grid])
        expected = np.zeros(len(cfg.pfa_grid), dtype=np.int64)
        for index, size in enumerate([SHARD_TRIALS] * 3 + [17]):
            stats = np.sort(simulate_statistics(
                scenario, scenario.attack_link, size,
                RngHandle(cfg.seed).spawn(1).spawn(index)))
            expected += size - np.searchsorted(stats, thresholds, side="left")
        np.testing.assert_array_equal(empirical_rejection_counts(cfg, "h1"), expected)

    def test_engine_runs_on_the_calling_thread_and_imports_no_pool(self, monkeypatch):
        out = _fresh_python(
            "import sys, backscatter_auth.cli; print('concurrent.futures' in sys.modules)")
        assert out.strip() == "False"

        seen = []
        simulate = experiments.simulate_statistics

        def record(*args):
            seen.append((threading.get_ident(), threading.active_count()))
            return simulate(*args)

        monkeypatch.setattr(experiments, "simulate_statistics", record)
        caller = (threading.get_ident(), threading.active_count())
        empirical_rejection_counts(_config(trials=SHARD_TRIALS * 3 + 17), "h1")
        assert seen == [caller] * 4
        assert threading.active_count() == caller[1]

    def test_engine_runs_the_configs_own_scenario(self, monkeypatch):
        cfg = _config(trials=100)
        expected = empirical_rejection_counts(cfg, "h1")

        def refuse(*args, **kwargs):
            raise AssertionError("the engine built a scenario of its own")

        monkeypatch.setattr(experiments, "build_scenario", refuse)
        np.testing.assert_array_equal(empirical_rejection_counts(cfg, "h1"), expected)

    def test_sweep_loads_no_random_module(self, tmp_path):
        # an analytic run draws nothing, so it never needs numpy.random
        out = _fresh_python(
            "import sys; from backscatter_auth.cli import main; "
            f"code = main(['sweep', '--config', {str(ROC_DEMO)!r}, '--mu-list', '0.5,2.0', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
        assert out.splitlines()[-1] == "0 False"

    def test_statistic_on_a_threshold_rejects(self, monkeypatch):
        # continuous draws never tie, so the tie rule is checked on
        # statistics placed exactly on the thresholds
        cfg = _config(trials=3)
        scenario = cfg.scenario
        on_thresholds = [design_threshold(p, scenario.est_variance) for p in cfg.pfa_grid]
        monkeypatch.setattr(experiments, "simulate_statistics",
                            lambda *args: np.array(on_thresholds))
        np.testing.assert_array_equal(empirical_rejection_counts(cfg, "h1"), [1, 2, 3])

    def test_unknown_hypothesis_rejected(self):
        with pytest.raises(ParameterError):
            empirical_rejection_counts(_config(), "h2")


def _assert_same_curve(first, second):
    assert first.kind is second.kind
    for column in ("pfa", "pd", "stderr"):
        np.testing.assert_array_equal(getattr(first, column), getattr(second, column))


class TestRocCurve:
    def _curve(self, **kw):
        columns = dict(pfa=[0.1, 0.2, 0.5], pd=[0.3, 0.6, 0.9], stderr=[0.0, 0.0, 0.0],
                       kind=RocKind.ANALYTIC)
        columns.update(kw)
        return experiments.RocCurve(**columns)

    def test_columns_are_read_only_float64_copies(self):
        pd = np.array([0.3, 0.6, 0.9])
        curve = self._curve(pd=pd)
        for column in (curve.pfa, curve.pd, curve.stderr):
            assert column.dtype == np.float64 and column.ndim == 1
            with pytest.raises(ValueError):
                column[0] = 0.5
        pd[0] = 0.0  # the caller's array stays its own
        assert curve.pd[0] == 0.3
        assert pd.flags.writeable

    @pytest.mark.parametrize("pfa", [[0.2, 0.1, 0.5], [0.1, 0.1, 0.5]])
    def test_pfa_not_strictly_ascending_rejected(self, pfa):
        with pytest.raises(ConfigurationError, match="sorted by pfa ascending"):
            self._curve(pfa=pfa)

    @pytest.mark.parametrize("column", ["pfa", "pd", "stderr"])
    def test_unequal_column_lengths_rejected(self, column):
        with pytest.raises(ConfigurationError, match="one length"):
            self._curve(**{column: [0.1, 0.2]})

    def test_non_1d_column_rejected(self):
        with pytest.raises(ConfigurationError, match="1-D"):
            self._curve(pd=[[0.3, 0.6, 0.9]])


class TestRocAnalytic:
    def test_chance_line_at_zero_offset(self):
        curve = roc_analytic(_config(mu_mag=0.0, pfa_grid=GRID_50))
        np.testing.assert_array_equal(curve.pfa, GRID_50)
        np.testing.assert_allclose(curve.pd, curve.pfa, rtol=1e-12, atol=0.0)
        assert curve.kind is RocKind.ANALYTIC
        np.testing.assert_array_equal(curve.stderr, np.zeros(len(GRID_50)))

    def test_chance_line_deep_in_the_tail(self):
        # regression: pd as 1 - (1 - Q1) read 0.0 at pfa 1e-20 and lost 4.5e-12
        # relative at 1e-5; read from Q1 directly it stays relatively exact, up
        # to the threshold design's own rounding, which exp(-b^2/2) amplifies
        # by |ln pfa|
        grid = tuple(10.0 ** -k for k in (300, 250, 200, 100, 50, 20, 10, 5, 2, 1))
        for sinr_db in (0.0, 5.0, 10.0):
            curve = roc_analytic(_config(sinr_db=sinr_db, mu_mag=0.0, pfa_grid=grid))
            for pfa, pd in zip(curve.pfa, curve.pd):
                tol = 1e-14 * max(1.0, -math.log(pfa))
                assert pd == pytest.approx(pfa, rel=tol, abs=0.0)

    def test_one_marcum_kernel_call_per_roc_and_sweep(self, monkeypatch):
        # through the special module's namespace, so a caller that swaps
        # special.marcum_q1_grid (a tracer, say) sees every analytic point
        from backscatter_auth import special

        points = []
        grid = special.marcum_q1_grid
        monkeypatch.setattr(special, "marcum_q1_grid", lambda a, b, side: points.append(
            np.broadcast(a, b).size) or grid(a, b, side))
        roc_analytic(_config(pfa_grid=GRID_50))
        assert points == [len(GRID_50)]
        sweep_attacker(_config(pfa_grid=GRID_50), [0.5, 1.0, 2.0])
        assert points == [len(GRID_50), 3 * len(GRID_50)]

    def test_monotone_in_pfa(self):
        curve = roc_analytic(_config(pfa_grid=GRID_50))
        assert np.all(curve.pd[1:] >= curve.pd[:-1])

    def test_dominance_in_sinr(self):
        low = roc_analytic(_config(sinr_db=0.0, mu_mag=0.5, pfa_grid=GRID_50))
        high = roc_analytic(_config(sinr_db=5.0, mu_mag=0.5, pfa_grid=GRID_50))
        assert np.all(high.pd >= low.pd)
        assert np.any(high.pd > low.pd)

    def test_chance_line_lower_bound(self):
        for mu in (0.0, 0.3, 1.0):
            curve = roc_analytic(_config(mu_mag=mu, pfa_grid=GRID_50))
            assert np.all(curve.pd >= curve.pfa - 1e-12)
            if mu > 0:
                assert np.all(curve.pd > curve.pfa)


class TestRocEmpirical:
    def test_single_trial_degenerate(self):
        curve = roc_empirical(_config(trials=1))
        assert set(curve.pd.tolist()) <= {0.0, 1.0}

    def test_reproducible_bit_for_bit(self):
        cfg = _config(trials=20_000)
        first = roc_empirical(cfg)
        second = roc_empirical(cfg)
        assert first is not second
        _assert_same_curve(first, second)

    def test_stderr_field(self):
        curve = roc_empirical(_config(trials=10_000))
        assert curve.kind is RocKind.EMPIRICAL
        for pd, stderr in zip(curve.pd.tolist(), curve.stderr.tolist()):
            assert stderr == pytest.approx(math.sqrt(pd * (1.0 - pd) / 10_000), abs=1e-15)

    def test_matches_analytic_on_default_grid(self):
        # moderate operating points keep every analytic p well inside (0, 1)
        grid = tuple(float(p) for p in np.linspace(0.01, 0.6, 25))
        cfg = _config(pfa_grid=grid, trials=100_000, seed=314)
        ana = roc_analytic(cfg)
        emp = roc_empirical(cfg)
        inside_3 = 0
        for pa, pe in zip(ana.pd, emp.pd):
            se = math.sqrt(pa * (1.0 - pa) / cfg.trials)
            assert abs(pe - pa) <= 4.0 * se
            inside_3 += abs(pe - pa) <= 3.0 * se
        assert inside_3 / len(grid) >= 0.99

    def test_h0_rates_track_targets(self):
        cfg = _config(pfa_grid=(0.05, 0.1, 0.3), trials=100_000, seed=2718)
        rates = empirical_rejection_rates(cfg, "h0")
        for target, rate in zip(cfg.pfa_grid, rates):
            se = math.sqrt(target * (1 - target) / cfg.trials)
            assert abs(rate - target) <= 4.0 * se


class TestSweepAttacker:
    def test_zero_offset_single_chance_line(self):
        curves = sweep_attacker(_config(pfa_grid=GRID_50), [0.0])
        assert len(curves) == 1
        np.testing.assert_allclose(curves[0].pd, curves[0].pfa, rtol=1e-12, atol=0.0)

    def test_larger_offset_dominates(self):
        curves = sweep_attacker(_config(pfa_grid=GRID_50), [0.5, 1.0, 2.0])
        for weaker, stronger in zip(curves, curves[1:]):
            assert np.all(stronger.pd >= weaker.pd)
            assert np.any(stronger.pd > weaker.pd)

    def test_duplicates_identical(self):
        curves = sweep_attacker(_config(), [1.0, 1.0])
        assert curves[0] is not curves[1]
        _assert_same_curve(curves[0], curves[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            sweep_attacker(_config(), [])

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_attacker(_config(), [0.5, -0.1])
