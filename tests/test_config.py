"""Config file parsing: schema enforcement and diagnostics."""

import re

import pytest

from backscatter_auth.config import device_from, load_config, signaling_params
from backscatter_auth.errors import ConfigurationError

FULL_CONFIG = """\
[device]
reader_h_tx = 1.1+0.2j
reader_h_rx = 0.9-0.1j
ltag_h_tx = 0.8+0.3j
ltag_h_rx = 1.05+0.15j
mtag_h_tx = 0.6-0.4j
mtag_h_rx = 1.2+0.1j

[signaling]
p_r = 2.0
eta = 3.5
sigma2_r = 0.5
sigma2_si_r = 0.25
sigma2_si_t = 0.25

[detector]
target_pfa = 0.05

[experiment]
sinr_db = 5.0
n_train = 8
mu_mag = 1.0
pfa_grid = 0.01,0.05,0.1
trials = 1000
seed = 42
responder = ltag
"""


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_full_config_parses(self, tmp_path):
        doc = load_config(_write(tmp_path, FULL_CONFIG))
        assert doc.get_float("experiment", "sinr_db") == 5.0
        assert doc.get_int("experiment", "n_train") == 8
        assert doc.get_pfa_grid() == (0.01, 0.05, 0.1)
        assert doc.get_choice("experiment", "responder", ("ltag", "mtag")) == "ltag"
        assert doc.get_complex("device", "reader_h_tx") == 1.1 + 0.2j

    def test_signaling_params(self, tmp_path):
        doc = load_config(_write(tmp_path, FULL_CONFIG))
        tx, noise = signaling_params(doc)
        assert tx.p_r == 2.0 and tx.eta == 3.5
        assert noise.total_variance == 1.0

    def test_devices(self, tmp_path):
        doc = load_config(_write(tmp_path, FULL_CONFIG))
        reader = device_from(doc, "reader")
        mtag = device_from(doc, "mtag")
        assert reader.h_rx == 0.9 - 0.1j
        assert mtag.h_tx == 0.6 - 0.4j

    def test_unknown_key_names_field_and_line(self, tmp_path):
        text = FULL_CONFIG.replace("seed = 42", "seed = 42\nsede = 1")
        with pytest.raises(ConfigurationError, match=r"sede.*line 26"):
            load_config(_write(tmp_path, text))

    def test_diagnostic_line_is_in_the_named_section(self, tmp_path):
        # seed is a known key of [experiment] (line 2), unknown in [detector]
        text = "[experiment]\nseed = 1\n\n[detector]\ntarget_pfa = 0.1\nseed = 2\n"
        with pytest.raises(ConfigurationError, match=r"\[detector\] seed \(line 6\): unknown key"):
            load_config(_write(tmp_path, text))

    def test_diagnostic_line_matches_key_in_any_case(self, tmp_path):
        # configparser lowercases option names; the line is found all the same
        text = FULL_CONFIG.replace("n_train = 8", "N_TRAIN = x")
        doc = load_config(_write(tmp_path, text))
        with pytest.raises(ConfigurationError, match=r"\[experiment\] n_train \(line 21\)"):
            doc.get_int("experiment", "n_train")

    def test_si_power_key_rejected(self, tmp_path):
        # never used in any computation, so it is an unknown key like any other
        text = FULL_CONFIG.replace("mtag_h_rx = 1.2+0.1j", "mtag_h_rx = 1.2+0.1j\nmtag_si_power = 0")
        with pytest.raises(ConfigurationError, match=r"mtag_si_power.*unknown key"):
            load_config(_write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"\[plotting\]"):
            load_config(_write(tmp_path, FULL_CONFIG + "\n[plotting]\nstyle = dark\n"))

    @pytest.mark.parametrize("text", [
        # a DEFAULT key beside the section's own
        "[DEFAULT]\nseed = 5\n\n[experiment]\nseed = 3\n",
        # every [experiment] key under DEFAULT, the section itself empty
        "[DEFAULT]" + FULL_CONFIG.split("[experiment]")[1] + "\n[experiment]\n",
        # an unknown DEFAULT key, once reported against [experiment]
        "[DEFAULT]\nfoo = 1\n\n" + FULL_CONFIG,
    ], ids=["beside-own-key", "all-experiment-keys", "unknown-key"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser merges [DEFAULT] into every section; here it is an
        # unknown section like any other
        with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
            load_config(_write(tmp_path, text))

    def test_syntax_error_reported(self, tmp_path):
        # a key with no value; configparser's error, prefixed with the path
        with pytest.raises(ConfigurationError, match=r"scenario\.cfg: Source contains parsing errors"):
            load_config(_write(tmp_path, "[experiment]\nseed\n"))

    def test_inline_comments_stripped(self, tmp_path):
        text = FULL_CONFIG.replace("n_train = 8", "n_train = 8   ; training symbols")
        text = text.replace("[experiment]", "[experiment]  ; see [1]")
        doc = load_config(_write(tmp_path, text.replace("mu_mag = 1.0", "mu_mag = x ; [2]")))
        assert doc.get_int("experiment", "n_train") == 8
        with pytest.raises(ConfigurationError, match=r"mu_mag \(line 22\): not a number: 'x'"):
            doc.get_float("experiment", "mu_mag")

    @pytest.mark.parametrize("old,new,read,message", [
        ("sinr_db = 5.0", "sinr_db = inf", lambda doc: doc.get_float("experiment", "sinr_db"),
         "[experiment] sinr_db (line 20): must be finite"),
        ("reader_h_tx = 1.1+0.2j", "reader_h_tx = 1.1+j0.2",
         lambda doc: doc.get_complex("device", "reader_h_tx"),
         "[device] reader_h_tx (line 2): not a complex number"),
        ("responder = ltag", "responder = xtag",
         lambda doc: doc.get_choice("experiment", "responder", ("ltag", "mtag")),
         "[experiment] responder (line 26): must be one of"),
        ("pfa_grid = 0.01,0.05,0.1", "pfa_grid = linspace:0.1:0.9:x", lambda doc: doc.get_pfa_grid(),
         "[experiment] pfa_grid (line 23): bad linspace arguments"),
        ("pfa_grid = 0.01,0.05,0.1", "pfa_grid = linspace:0.1:0.9:0", lambda doc: doc.get_pfa_grid(),
         "[experiment] pfa_grid (line 23): linspace count must be >= 1"),
        ("pfa_grid = 0.01,0.05,0.1", "pfa_grid = 0.01,five", lambda doc: doc.get_pfa_grid(),
         "[experiment] pfa_grid (line 23): not a comma list"),
    ], ids=["non-finite", "not-complex", "not-a-choice", "linspace-arguments",
            "linspace-count", "comma-list"])
    def test_bad_value_names_field_and_line(self, tmp_path, old, new, read, message):
        doc = load_config(_write(tmp_path, FULL_CONFIG.replace(old, new)))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            read(doc)

    def test_missing_key_reported(self, tmp_path):
        doc = load_config(_write(tmp_path, "[experiment]\nseed = 1\n"))
        with pytest.raises(ConfigurationError, match="n_train"):
            doc.get_int("experiment", "n_train")

    def test_bad_number_diagnostic(self, tmp_path):
        text = FULL_CONFIG.replace("sinr_db = 5.0", "sinr_db = five")
        doc = load_config(_write(tmp_path, text))
        with pytest.raises(ConfigurationError, match="sinr_db"):
            doc.get_float("experiment", "sinr_db")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")


class TestPfaGrid:
    def test_zero_rejected_with_field_diagnostic(self, tmp_path):
        text = FULL_CONFIG.replace("pfa_grid = 0.01,0.05,0.1", "pfa_grid = 0.0,0.05")
        doc = load_config(_write(tmp_path, text))
        with pytest.raises(ConfigurationError, match=r"pfa_grid.*\(0, 1\)"):
            doc.get_pfa_grid()

    def test_non_increasing_rejected(self, tmp_path):
        text = FULL_CONFIG.replace("pfa_grid = 0.01,0.05,0.1", "pfa_grid = 0.1,0.05")
        doc = load_config(_write(tmp_path, text))
        with pytest.raises(ConfigurationError, match="increasing"):
            doc.get_pfa_grid()

    def test_linspace_form(self, tmp_path):
        text = FULL_CONFIG.replace("pfa_grid = 0.01,0.05,0.1",
                                   "pfa_grid = linspace:0.01:0.99:50")
        doc = load_config(_write(tmp_path, text))
        grid = doc.get_pfa_grid()
        assert len(grid) == 50
        assert grid[0] == 0.01 and grid[-1] == 0.99

    def test_bad_linspace_form(self, tmp_path):
        text = FULL_CONFIG.replace("pfa_grid = 0.01,0.05,0.1", "pfa_grid = linspace:0.1:0.9")
        doc = load_config(_write(tmp_path, text))
        with pytest.raises(ConfigurationError, match="linspace"):
            doc.get_pfa_grid()
