"""End-to-end CLI contracts: files, determinism, exit codes, diagnostics."""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from backscatter_auth import cli
from backscatter_auth.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, build_parser, main
from backscatter_auth.config import load_config
from backscatter_auth.experiments import ExperimentConfig

ROC_CONFIG = """\
[experiment]
sinr_db = 5.0
n_train = 1
mu_mag = 1.0
pfa_grid = linspace:0.02:0.98:50
trials = 20000
seed = 422
"""

AUTH_CONFIG = """\
[device]
reader_h_tx = 1.1+0.2j
reader_h_rx = 0.9-0.1j
ltag_h_tx = 0.8+0.3j
ltag_h_rx = 1.05+0.15j
mtag_h_tx = 0.6-0.4j
mtag_h_rx = 1.2+0.1j

[signaling]
p_r = 1.0
eta = 31.6227766016838
sigma2_r = 0.5
sigma2_si_r = 0.25
sigma2_si_t = 0.25

[detector]
target_pfa = 0.01

[experiment]
n_train = 16
seed = 1234
responder = ltag
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "pfa,pd,kind,stderr"
    return lines[1:]


class TestRocCommand:
    def test_writes_expected_files_and_row_counts(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out = tmp_path / "out"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(_rows(out / "roc_analytic.csv")) == 50
        assert len(_rows(out / "roc_empirical.csv")) == 50
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "roc"
        assert manifest["emitted_files"] == ["roc_analytic.csv", "roc_empirical.csv"]
        assert manifest["seed"] == 422

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["roc", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["roc", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("roc_analytic.csv", "roc_empirical.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_trials_skips_empirical(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG.replace("trials = 20000", "trials = 0"))
        out = tmp_path / "out"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "roc_analytic.csv").exists()
        assert not (out / "roc_empirical.csv").exists()

    def test_seed_override_changes_empirical_only(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["roc", "--config", cfg, "--out", str(out1)])
        main(["roc", "--config", cfg, "--out", str(out2), "--seed", "9"])
        assert (out1 / "roc_analytic.csv").read_bytes() == (out2 / "roc_analytic.csv").read_bytes()
        assert (out1 / "roc_empirical.csv").read_bytes() != (out2 / "roc_empirical.csv").read_bytes()

    def test_invalid_grid_reports_field(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG.replace(
            "pfa_grid = linspace:0.02:0.98:50", "pfa_grid = 0.0,0.5"))
        assert main(["roc", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert "pfa_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("sinr_db", ["3100", "-3100"])
    def test_sinr_outside_the_double_range_reports_field(self, tmp_path, capsys, sinr_db):
        cfg = _write(tmp_path, ROC_CONFIG.replace("sinr_db = 5.0", f"sinr_db = {sinr_db}"))
        out = tmp_path / "o"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert "sinr_db" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_outside_the_double_range_reports_field(self, tmp_path, capsys):
        # a finite variance (1.56e308) whose largest threshold overflows
        cfg = _write(tmp_path, ROC_CONFIG.replace("sinr_db = 5.0", "sinr_db = -3100")
                     .replace("n_train = 1", "n_train = 64"))
        out = tmp_path / "o"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert "sinr_db" in capsys.readouterr().err
        assert not out.exists()

    def test_raw_sinr_overflow_reports_field(self, tmp_path, capsys):
        signaling = ("[signaling]\np_r = 1.0\neta = 1e200\nsigma2_r = 0.5\n"
                     "sigma2_si_r = 0.25\nsigma2_si_t = 0.25\n")
        cfg = _write(tmp_path, ROC_CONFIG.replace("sinr_db = 5.0\n", "") + signaling)
        out = tmp_path / "o"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert "eta = 1e+200" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG + "typo_key = 3\n")
        assert main(["roc", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert "typo_key" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG)
        blocker = tmp_path / "blocked"
        blocker.write_text("a regular file where the output dir should be")
        assert main(["roc", "--config", cfg, "--out", str(blocker / "sub")]) == EXIT_ERROR

    def test_raw_signaling_reduction(self, tmp_path):
        # no sinr_db: the run must reduce the raw physical parameters and
        # match the equivalent explicit-SINR config exactly
        raw = """\
[experiment]
n_train = 1
mu_mag = 1.0
pfa_grid = linspace:0.02:0.98:50
trials = 20000
seed = 422

[signaling]
p_r = 1.0
eta = 1.7782794100389228
sigma2_r = 0.5
sigma2_si_r = 0.25
sigma2_si_t = 0.25
"""
        cfg_raw = _write(tmp_path, raw, "raw.cfg")
        cfg_sinr = _write(tmp_path, ROC_CONFIG, "sinr.cfg")
        out_raw, out_sinr = tmp_path / "raw_out", tmp_path / "sinr_out"
        assert main(["roc", "--config", cfg_raw, "--out", str(out_raw)]) == EXIT_OK
        assert main(["roc", "--config", cfg_sinr, "--out", str(out_sinr)]) == EXIT_OK
        # eta^2 * p_r / sigma2 = 10^0.5 exactly enough for identical analytics
        assert (out_raw / "roc_analytic.csv").read_bytes() == \
            (out_sinr / "roc_analytic.csv").read_bytes()


class TestSweepCommand:
    def test_one_csv_per_mu(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--mu-list", "0.5,1.0,2.0"])
        assert code == EXIT_OK
        names = ["roc_mu_0.5000.csv", "roc_mu_1.0000.csv", "roc_mu_2.0000.csv"]
        for name in names:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["emitted_files"] == names

    def test_empty_mu_list_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--mu-list", ""]) == EXIT_ERROR
        assert "mu-list" in capsys.readouterr().err

    def test_non_numeric_mu_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--mu-list", "0.5,abc"]) == EXIT_ERROR
        assert "--mu-list" in capsys.readouterr().err

    def test_colliding_file_names_are_usage_error(self, tmp_path, capsys):
        # 1.0 and 1.00001 would both write roc_mu_1.0000.csv
        cfg = _write(tmp_path, ROC_CONFIG)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--mu-list", "1.0,1.00001"]) == EXIT_ERROR
        assert "--mu-list" in capsys.readouterr().err
        assert not out.exists()

    def test_order_independent_contents(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out1), "--mu-list", "0.5,2.0"])
        main(["sweep", "--config", cfg, "--out", str(out2), "--mu-list", "2.0,0.5"])
        for name in ("roc_mu_0.5000.csv", "roc_mu_2.0000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_required_flag_is_exit_1(self, tmp_path, capsys):
        cfg = _write(tmp_path, ROC_CONFIG)
        assert main(["sweep", "--config", cfg]) == EXIT_ERROR


class TestOutputFiles:
    """Each output replaces its name with a new file: never truncated in
    place, never written through a link, the manifest gone until the run
    completes."""

    NAMES = ("roc_analytic.csv", "roc_empirical.csv")

    def test_rerun_writes_new_files_with_the_same_bytes(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out, kept = tmp_path / "out", tmp_path / "kept"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        # hard links hold the first run's inodes alive, so the rerun's files
        # cannot be given their numbers again
        kept.mkdir()
        first = {}
        for name in self.NAMES:
            os.link(out / name, kept / name)
            first[name] = ((out / name).read_bytes(), (out / name).stat().st_ino)
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name, (data, ino) in first.items():
            assert (out / name).read_bytes() == data
            assert (out / name).stat().st_ino != ino
            assert (kept / name).stat().st_ino == ino

    def test_links_at_output_names_are_replaced(self, tmp_path):
        cfg = _write(tmp_path, ROC_CONFIG)
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        for name in self.NAMES:
            (elsewhere / name).write_text("not an output\n")
        (out / "roc_analytic.csv").symlink_to(elsewhere / "roc_analytic.csv")
        os.link(elsewhere / "roc_empirical.csv", out / "roc_empirical.csv")
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in self.NAMES:
            assert not (out / name).is_symlink()
            assert (out / name).stat().st_nlink == 1
            assert _rows(out / name)
            assert (elsewhere / name).read_text() == "not an output\n"

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        cfg = _write(tmp_path, ROC_CONFIG)
        out = tmp_path / "out"
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "manifest.json").exists()

        def fail(config):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "roc_empirical", fail)
        assert main(["roc", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert "no space left on device" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestManifest:
    """manifest.json: seven keys, sorted, indent 2, LF-terminated, the
    emitted files in the order they were written."""

    KEYS = {"command", "config_digest", "config_path", "emitted_files",
            "output_dir", "seed", "wall_time_s"}

    @pytest.mark.parametrize("command,trials,extra,emitted", [
        ("roc", 2000, [], ["roc_analytic.csv", "roc_empirical.csv"]),
        ("roc", 0, [], ["roc_analytic.csv"]),
        # write order follows --mu-list, not the sorted names
        ("sweep", 2000, ["--mu-list", "2.0,0.5,1.0"],
         ["roc_mu_2.0000.csv", "roc_mu_0.5000.csv", "roc_mu_1.0000.csv"]),
    ])
    def test_format(self, tmp_path, command, trials, extra, emitted):
        cfg = _write(tmp_path, ROC_CONFIG.replace("trials = 20000", f"trials = {trials}"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == EXIT_OK

        text = (out / "manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(text)
        assert set(manifest) == self.KEYS
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert manifest["command"] == command
        assert manifest["config_path"] == cfg
        assert manifest["output_dir"] == str(out)
        assert manifest["seed"] == 422
        assert isinstance(manifest["wall_time_s"], float) and manifest["wall_time_s"] >= 0.0

        assert manifest["emitted_files"] == emitted
        written = [(out / name).stat().st_mtime_ns for name in emitted]
        assert written == sorted(written)
        assert (out / "manifest.json").stat().st_mtime_ns >= written[-1]

        doc = load_config(cfg)
        expected = ExperimentConfig(
            sinr_db=5.0, n_train=1, mu_mag=1.0, pfa_grid=doc.get_pfa_grid(),
            trials=trials, seed=422)
        assert manifest["config_digest"] == expected.digest()


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "roc_demo.cfg"
STRONG_ATTACKER_CONFIG = """\
[experiment]
sinr_db = 30.0
n_train = 64
mu_mag = 1.0
pfa_grid = linspace:0.01:0.99:50
trials = 0
seed = 1
"""
# 16 log-spaced distances from 0.01 to 10; from 0.0398 on every pd is 1.0
STRONG_ATTACKER_MUS = [10.0 ** (-2.0 + 3.0 * k / 15.0) for k in range(16)]
ALL_DETECTED = "a05b05e39bbc61a7bd9c6368bf0face95d3bdc82c8f6fe4b277135a0ecd4d53d"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedAnalyticBytes:
    """SHA-256 of analytic CSVs as the per-point Marcum loop wrote them,
    before the grid kernel replaced it; the kernel keeps every bit."""

    def test_demo_roc_analytic_csv(self, tmp_path):
        assert main(["roc", "--config", str(DEMO_CONFIG), "--out", str(tmp_path)]) == EXIT_OK
        assert _sha256(tmp_path / "roc_analytic.csv") == (
            "494c0e1595091404b02b004b3afa6136be295a4bc8fb68e832f78c77d251ebc1")

    def test_strong_attacker_sweep_csvs(self, tmp_path):
        cfg = _write(tmp_path, STRONG_ATTACKER_CONFIG)
        mu_list = ",".join(repr(mu) for mu in STRONG_ATTACKER_MUS)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--mu-list", mu_list, "--out", str(out)]) == EXIT_OK
        digests = {path.name: _sha256(path) for path in out.glob("*.csv")}
        assert len(digests) == 16
        assert digests.pop("roc_mu_0.0100.csv") == (
            "a6405934d1318e5380809a0f065e5dae5681a2823c447c2e8a6d382db51b0027")
        assert digests.pop("roc_mu_0.0158.csv") == (
            "7ea1b6493a26d7510d32b6d5ad2e9ef89834ff17a53894c7dea12ab1e77c49a3")
        assert digests.pop("roc_mu_0.0251.csv") == (
            "8b7eda94501e021632f6b2926b8642f7fa0482c33c46347864ccd4ec4d05f0c6")
        assert set(digests.values()) == {ALL_DETECTED}


class TestPinnedEmpiricalBytes:
    """SHA-256 of the demo's Monte Carlo CSV: its counts and the text of
    every binomial stderr, as the per-point writer formatted them."""

    def test_demo_roc_empirical_csv(self, tmp_path):
        assert main(["roc", "--config", str(DEMO_CONFIG), "--out", str(tmp_path)]) == EXIT_OK
        assert _sha256(tmp_path / "roc_empirical.csv") == (
            "db72d6c35364c78662bdaadf6c9d854a0ef9ea406b63de599ff8b1aec67528b6")


class TestValidateCommand:
    def test_fast_passes_within_budget(self, capsys):
        start = time.perf_counter()
        assert main(["validate", "--fast"]) == EXIT_OK
        assert time.perf_counter() - start < 30.0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_json_summary(self, capsys):
        assert main(["validate", "--fast", "--json-summary"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "scale-convention mutation rejected" in names
        assert "marcum_q1c vs lower-tail quadrature" in names
        seconds = [c["seconds"] for c in report["checks"]]
        assert all(isinstance(t, float) and t > 0.0 for t in seconds)


class TestAuthCommand:
    def test_legitimate_responder_accepts(self, tmp_path, capsys):
        cfg = _write(tmp_path, AUTH_CONFIG)
        assert main(["auth", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ACCEPT" in out
        assert "statistic" in out and "threshold" in out

    def test_malicious_responder_rejected(self, tmp_path):
        cfg = _write(tmp_path, AUTH_CONFIG.replace("responder = ltag", "responder = mtag"))
        assert main(["auth", "--config", cfg]) == EXIT_REJECT

    def test_clone_with_identical_chains_is_undetectable(self, tmp_path, capsys):
        legit = _write(tmp_path, AUTH_CONFIG, "legit.cfg")
        clone_cfg = AUTH_CONFIG.replace("mtag_h_tx = 0.6-0.4j", "mtag_h_tx = 0.8+0.3j")
        clone_cfg = clone_cfg.replace("mtag_h_rx = 1.2+0.1j", "mtag_h_rx = 1.05+0.15j")
        clone_cfg = clone_cfg.replace("responder = ltag", "responder = mtag")
        clone = _write(tmp_path, clone_cfg, "clone.cfg")

        assert main(["auth", "--config", legit, "--json-summary"]) == EXIT_OK
        legit_report = json.loads(capsys.readouterr().out)
        assert main(["auth", "--config", clone, "--json-summary"]) == EXIT_OK
        clone_report = json.loads(capsys.readouterr().out)
        # zero fingerprint distance: identical statistic, identical outcome
        assert clone_report["statistic"] == legit_report["statistic"]
        assert clone_report["decision"] == "ACCEPT"

    def test_trials_flag_rejected(self, tmp_path, capsys):
        # one episode has no Monte Carlo budget to override
        cfg = _write(tmp_path, AUTH_CONFIG)
        assert main(["auth", "--config", cfg, "--trials", "5"]) == EXIT_ERROR
        assert "--trials" in capsys.readouterr().err

    def test_legitimate_responder_needs_no_mtag_keys(self, tmp_path):
        text = "".join(line for line in AUTH_CONFIG.splitlines(keepends=True)
                       if not line.startswith("mtag_"))
        assert main(["auth", "--config", _write(tmp_path, text)]) == EXIT_OK

    def test_missing_responder_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, AUTH_CONFIG.replace("responder = ltag\n", ""))
        assert main(["auth", "--config", cfg]) == EXIT_ERROR
        assert "responder" in capsys.readouterr().err

    def test_json_summary_fields(self, tmp_path, capsys):
        cfg = _write(tmp_path, AUTH_CONFIG)
        assert main(["auth", "--config", cfg, "--json-summary"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["decision"] == "ACCEPT"
        assert report["statistic"] < report["threshold"]

    def test_seeded_fixture_pinned(self, tmp_path, capsys):
        # frozen from a seed-1234 run; guards the whole chain against drift
        cfg = _write(tmp_path, AUTH_CONFIG)
        assert main(["auth", "--config", cfg, "--json-summary"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["estimate_re"] == pytest.approx(0.7696326427618707, rel=1e-12)
        assert report["estimate_im"] == pytest.approx(0.5012147431407157, rel=1e-12)
        assert report["statistic"] == pytest.approx(0.006844323913735044, rel=1e-12)
        assert report["threshold"] == pytest.approx(0.016965351061037776, rel=1e-12)


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_ERROR

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_ERROR

    def test_calls_in_sequence_share_no_parse_state(self, tmp_path, capsys):
        # one parser serves every call in the process; a value parsed by
        # one call must not reach the next
        assert build_parser() is build_parser()
        cfg = _write(tmp_path, ROC_CONFIG)

        def seed_of(out):
            return json.loads((out / "manifest.json").read_text())["seed"]

        swept, plain = tmp_path / "sweep", tmp_path / "roc"
        assert main(["sweep", "--config", cfg, "--mu-list", "1.0", "--seed", "5",
                     "--out", str(swept)]) == EXIT_OK
        assert main(["roc", "--config", cfg, "--out", str(plain)]) == EXIT_OK
        assert (seed_of(swept), seed_of(plain)) == (5, 422)

        assert main(["roc", "--config", cfg, "--seed", "7", "--bogus"]) == EXIT_ERROR
        after_error = tmp_path / "after_error"
        assert main(["roc", "--config", cfg, "--out", str(after_error)]) == EXIT_OK
        assert seed_of(after_error) == 422
        assert (after_error / "roc_empirical.csv").read_bytes() == \
            (plain / "roc_empirical.csv").read_bytes()
