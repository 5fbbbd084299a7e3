"""Key-value experiment config files.

Flat INI-style sections, one per module: [device], [signaling], [detector],
[experiment].  All physical quantities are linear except sinr_db.  Unknown
sections (configparser's [DEFAULT] among them) or keys are hard errors so
typos cannot silently change a run.  A ";" after whitespace starts a comment.
Complex values use Python literal syntax ("1+0.5j"); bare reals are fine.

pfa_grid accepts either an explicit comma list ("0.01,0.05,0.1") or
"linspace:<start>:<stop>:<count>".
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import DeviceModel
from .errors import ConfigurationError
from .experiments import checked_pfa_grid
from .signaling import LinkNoiseParams, TxParams

KNOWN_KEYS: dict[str, set[str]] = {
    "experiment": {"sinr_db", "n_train", "mu_mag", "pfa_grid", "trials", "seed", "responder"},
    "detector": {"target_pfa"},
    "signaling": {"p_r", "eta", "sigma2_r", "sigma2_si_r", "sigma2_si_t"},
    "device": {
        f"{role}_{attr}"
        for role in ("reader", "ltag", "mtag")
        for attr in ("h_tx", "h_rx")
    },
}

# configparser's header form, up to the first "]": no known section name
# holds one, and a ";" comment after the header may
_SECTION_HEADER = re.compile(r"\s*\[(?P<name>[^]]+)\]")


@dataclass
class ConfigDocument:
    """Parsed config plus enough source info for field-level diagnostics."""

    path: Path
    sections: dict[str, dict[str, str]]
    _source_lines: list[str]

    def line_of(self, section: str, key: str) -> int | None:
        """The line of `key` inside `section`, the key matched in any case
        because configparser lowercases option names."""
        pattern = re.compile(rf"\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
        in_section = False
        for i, line in enumerate(self._source_lines, start=1):
            header = _SECTION_HEADER.match(line)
            if header:
                in_section = header["name"] == section
            elif in_section and pattern.match(line):
                return i
        return None

    def error(self, section: str, key: str, message: str) -> ConfigurationError:
        line = self.line_of(section, key)
        where = f"line {line}" if line is not None else "line unknown"
        return ConfigurationError(f"{self.path}: [{section}] {key} ({where}): {message}")

    def raw(self, section: str, key: str) -> str:
        try:
            return self.sections[section][key]
        except KeyError:
            raise ConfigurationError(
                f"{self.path}: missing required key '{key}' in section [{section}]"
            ) from None

    def get_float(self, section: str, key: str) -> float:
        text = self.raw(section, key)
        try:
            value = float(text)
        except ValueError:
            raise self.error(section, key, f"not a number: {text!r}") from None
        if not math.isfinite(value):
            raise self.error(section, key, f"must be finite, got {text!r}")
        return value

    def get_int(self, section: str, key: str) -> int:
        text = self.raw(section, key)
        try:
            return int(text)
        except ValueError:
            raise self.error(section, key, f"not an integer: {text!r}") from None

    def get_complex(self, section: str, key: str) -> complex:
        text = self.raw(section, key).replace(" ", "")
        try:
            return complex(text)
        except ValueError:
            raise self.error(section, key, f"not a complex number: {text!r}") from None

    def get_choice(self, section: str, key: str, choices: tuple[str, ...]) -> str:
        text = self.raw(section, key).strip().lower()
        if text not in choices:
            raise self.error(section, key, f"must be one of {choices}, got {text!r}")
        return text

    def get_pfa_grid(self) -> tuple[float, ...]:
        section, key = "experiment", "pfa_grid"
        text = self.raw(section, key).strip()
        if text.startswith("linspace:"):
            parts = text.split(":")
            if len(parts) != 4:
                raise self.error(section, key, "linspace form is linspace:<start>:<stop>:<count>")
            try:
                start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            except ValueError:
                raise self.error(section, key, f"bad linspace arguments: {text!r}") from None
            if count < 1:
                raise self.error(section, key, "linspace count must be >= 1")
            values = [float(v) for v in np.linspace(start, stop, count)]
        else:
            try:
                values = [float(v) for v in text.split(",") if v.strip()]
            except ValueError:
                raise self.error(section, key, f"not a comma list of numbers: {text!r}") from None
        try:
            return checked_pfa_grid(values)
        except ConfigurationError as exc:
            raise self.error(section, key, str(exc)) from None


def load_config(path: str | Path) -> ConfigDocument:
    path = Path(path)
    # no header can name the section "" ([] is not a header), so [DEFAULT]
    # is a section like any other, and an unknown one; ";" starts an inline
    # comment, as no value the format accepts contains it
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=(";",))
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    doc = ConfigDocument(path=path, sections={}, _source_lines=text.splitlines())
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigurationError(
                f"{path}: unknown section [{section}] "
                f"(known: {', '.join(sorted(KNOWN_KEYS))})"
            )
        doc.sections[section] = items = dict(parser.items(section))
        for key in items:
            if key not in KNOWN_KEYS[section]:
                raise doc.error(section, key, "unknown key")
    return doc


def signaling_params(doc: ConfigDocument) -> tuple[TxParams, LinkNoiseParams]:
    tx = TxParams(p_r=doc.get_float("signaling", "p_r"), eta=doc.get_float("signaling", "eta"))
    noise = LinkNoiseParams(
        sigma2_r=doc.get_float("signaling", "sigma2_r"),
        sigma2_si_r=doc.get_float("signaling", "sigma2_si_r"),
        sigma2_si_t=doc.get_float("signaling", "sigma2_si_t"),
    )
    return tx, noise


def device_from(doc: ConfigDocument, role_name: str) -> DeviceModel:
    return DeviceModel(
        h_tx=doc.get_complex("device", f"{role_name}_h_tx"),
        h_rx=doc.get_complex("device", f"{role_name}_h_rx"),
    )
