"""Sanity of the oracle layer and the built-in validation battery."""

import math

import numpy as np
import pytest

from backscatter_auth import validation
from backscatter_auth.validation import (
    _frame_reference,
    check_consolidation_equivalence,
    check_estimator_statistics,
    check_marcum_complement_vs_quadrature,
    check_marcum_vs_quadrature,
    check_scale_convention_mutation,
    ks_critical,
    ks_statistic,
    marcum_q1_oracle,
    marcum_q1c_oracle,
    run_all,
)


class TestOracles:
    def test_marcum_oracle_closed_form_edges(self):
        # the oracle must independently reproduce the Rayleigh edge
        for b in (0.5, 1.0, 2.0, 5.0):
            assert marcum_q1_oracle(0.0, b) == pytest.approx(
                math.exp(-0.5 * b * b), rel=1e-11)

    def test_marcum_oracle_full_support(self):
        assert marcum_q1_oracle(1.5, 1e-12) == pytest.approx(1.0, rel=1e-11)

    def test_complement_oracle_closed_form_edge(self):
        # 1 - exp(-b^2/2), integrated over [0, b] rather than subtracted
        for b in (1e-3, 0.5, 2.0, 5.0):
            assert marcum_q1c_oracle(0.0, b) == pytest.approx(
                -math.expm1(-0.5 * b * b), rel=1e-11, abs=0.0)

    def test_oracles_partition_unity(self):
        for a, b in [(0.5, 1.0), (3.0, 2.0), (10.0, 12.0)]:
            assert marcum_q1_oracle(a, b) + marcum_q1c_oracle(a, b) == pytest.approx(
                1.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(3.0, 0.5), (8.0, 1.0), (12.0, 11.0), (2.0, 3.0)])
    def test_complement_oracle_vs_noncentral_chi_square(self, a, b):
        # scipy's ncx2.cdf is a cross-check only where it is far from
        # underflow: it reads 0.0 at (20, 0.1), where the value is 1.1e-89
        from scipy.stats import ncx2

        ref = float(ncx2.cdf(b * b, 2, a * a))
        assert ref >= 1e-60
        assert marcum_q1c_oracle(a, b) == pytest.approx(ref, rel=1e-9, abs=0.0)


class TestKs:
    def test_identical_samples_statistic_zero(self):
        x = np.linspace(0.0, 1.0, 100)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_samples_statistic_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50)) == 1.0

    @staticmethod
    def grid_formula(sample_a, sample_b):
        # both empirical CDFs evaluated at every point of the pooled sample
        a = np.sort(np.asarray(sample_a, dtype=float))
        b = np.sort(np.asarray(sample_b, dtype=float))
        grid = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, grid, side="right") / a.size
        cdf_b = np.searchsorted(b, grid, side="right") / b.size
        return float(np.abs(cdf_a - cdf_b).max())

    @pytest.mark.parametrize("n,m", [(1, 1), (7, 7), (13, 200), (500, 37), (3000, 60000)])
    def test_merge_equals_grid_formula_untied(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        a = rng.standard_normal(n)
        b = 1.1 * rng.standard_normal(m) + 0.05
        assert ks_statistic(a, b) == self.grid_formula(a, b)
        assert ks_statistic(b, a) == self.grid_formula(b, a)

    @pytest.mark.parametrize("n,m", [(5, 5), (20, 3), (64, 400), (1000, 777)])
    def test_merge_equals_grid_formula_tied(self, n, m):
        # few distinct values, so ties run within and across the samples
        rng = np.random.default_rng(n + m)
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(1, 8, m).astype(float)
        assert ks_statistic(a, b) == self.grid_formula(a, b)
        assert ks_statistic(a, a[::-1]) == 0.0

    def test_critical_value_formula(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.6276236307187293
        assert ks_critical(0.01, 1000, 1000) == pytest.approx(
            1.6276236307187293 * math.sqrt(2.0 / 1000.0), rel=1e-12)


class TestBattery:
    def test_shared_frame_reference_cannot_be_unlocked(self):
        # the kernel check and its mutation twin read one cached reference
        reference = _frame_reference(64, 5, 1)
        assert _frame_reference(64, 5, 1) is reference
        with pytest.raises(ValueError):
            reference.setflags(write=True)
        with pytest.raises(ValueError):
            reference[0] = 0.0

    def test_fast_battery_passes(self):
        report = run_all(fast=True, seed=2024)
        assert report.passed
        assert len(report.checks) == 9
        as_dict = report.as_dict()
        assert as_dict["passed"] is True
        assert all(isinstance(c["observed"], float) for c in as_dict["checks"])
        assert all(c["seconds"] > 0.0 for c in as_dict["checks"])

    @pytest.fixture
    def squares_only(self, monkeypatch):
        # the summed domain's band past the squares reads about 2e-11: inside
        # the checks' 1e-10, not the 1e-12 the squares are held to here
        monkeypatch.setattr(validation, "_domain_band", lambda above, past: [])

    def test_marcum_check_coarse(self, squares_only):
        for wide_step in (None, 10.0):  # with the sparse grid out to 50 as well
            result = check_marcum_vs_quadrature(step=2.0, wide_step=wide_step)
            assert result.passed
            assert result.observed <= 1e-12

    def test_complement_check_coarse(self, squares_only):
        result = check_marcum_complement_vs_quadrature(step=5.0)
        assert result.passed
        assert result.observed <= 1e-12

    def test_complement_check_rejects_one_minus_q1(self, monkeypatch):
        # the old composition 1 - marcum_q1 loses the whole lower tail
        from backscatter_auth import special

        q1 = special.marcum_q1
        monkeypatch.setattr(special, "marcum_q1c", lambda a, b: 1.0 - q1(a, b))
        result = check_marcum_complement_vs_quadrature(step=5.0)
        assert not result.passed
        assert result.observed == 1.0

    def test_consolidation_reports_the_failing_variance_gap(self):
        # the KS statistic passes here (9.55e-3 against 1.63e-2) but the
        # variance gap of 2.21% fails its 2%: the report names the gap
        result = check_consolidation_equivalence(n=20_000, seed=1007)
        assert not result.passed
        assert result.limit == 0.02
        assert result.observed == pytest.approx(0.02205, abs=1e-5)

    def test_consolidation_caches_no_long_frame(self, monkeypatch):
        # n samples are n responses to a one-symbol challenge, so the
        # process-wide frame cache keeps one symbol, not an n-symbol frame
        from backscatter_auth import signaling

        lengths = []
        all_ones = signaling._all_ones

        def record(n):
            lengths.append(n)
            return all_ones(n)

        monkeypatch.setattr(signaling, "_all_ones", record)
        check_consolidation_equivalence(n=2_000, seed=1007)
        assert lengths == [1]

    def test_estimator_reports_the_failing_bias(self, monkeypatch):
        # a shifted estimator keeps its variance and fails on its bias
        from backscatter_auth import experiments

        simulate = experiments.simulate_estimates
        monkeypatch.setattr(experiments, "simulate_estimates",
                            lambda *args: simulate(*args) + 0.01)
        result = check_estimator_statistics(trials=20_000, seed=1008)
        assert not result.passed
        assert result.observed == pytest.approx(0.01, rel=0.2)
        assert result.observed > result.limit

    @pytest.mark.parametrize("run_seed", [1004, 1034, 1035, 1042, 1052, 2024])
    def test_multi_part_checks_report_their_verdict(self, run_seed):
        # the default seed, and the seeds of validate --fast --seed whose
        # consolidation verdict once came from a component it did not report
        for result in (check_consolidation_equivalence(n=20_000, seed=run_seed + 3),
                       check_estimator_statistics(trials=20_000, seed=run_seed + 4)):
            assert result.passed == (result.observed <= result.limit)

    def test_mutation_power(self):
        # the deliberately wrong scale convention must be flagged as wrong
        result = check_scale_convention_mutation(trials=20_000, seed=2026)
        assert result.passed
        assert result.observed > 100.0

    def test_injected_scale_bug_fails_validation(self, monkeypatch):
        # sabotage the library's missed-detection law with the literal
        # half-variance-as-scale reading; the Monte Carlo grid must catch it
        from backscatter_auth import detection, validation
        from backscatter_auth.special import marcum_q1c

        def buggy_pmd(mu_mag, threshold, est_variance):
            s_bad = est_variance / 2.0
            return marcum_q1c(mu_mag / s_bad, threshold / s_bad)

        monkeypatch.setattr(detection, "analytic_pmd", buggy_pmd)
        result = validation.check_missed_detection_grid(trials=20_000, seed=2027)
        assert not result.passed
        assert result.observed > 4.0
