"""Command-line front end: roc, sweep, validate, auth.

Exit codes are stable: 0 success (or authentication accept), 1 any error
(bad config, unwritable output, failed validation), 2 authentication
reject.  CSV output is byte-deterministic for a fixed config and seed:
17-significant-digit shortest-form floats, '.' decimal separator, LF line
endings.  Each file-emitting command removes manifest.json first and
writes it last, so the manifest's presence signals a complete run.  Every
output is written as a new file in place of whatever held its name, so a
link at an output name is replaced, never written through.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigDocument, device_from, load_config, signaling_params
from .errors import ConfigurationError, ParameterError, ShapeError
from .experiments import (
    ExperimentConfig,
    RocCurve,
    build_scenario,
    roc_analytic,
    roc_empirical,
    run_trial,
    sweep_attacker,
)
from .rng import RngHandle

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route usage problems through the exit-code contract (1, not argparse's 2)
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _roc_csv(curve: RocCurve, pfa_text: list[str]) -> str:
    """One row per point from the columns' Python floats, 17 significant
    digits each ("%.17g", the conversion of format(x, ".17g")); the kind is
    written once into the row template.  ``pfa_text`` is the curve's pfa
    column already so formatted, once for all the curves of a run."""
    row = "%s,%.17g," + curve.kind.value + ",%.17g\n"
    rows = zip(pfa_text, curve.pd.tolist(), curve.stderr.tolist(), strict=True)
    return "pfa,pd,kind,stderr\n" + "".join([row % r for r in rows])


def _write_text(path: Path, content: str) -> None:
    """Replace whatever holds the name with a new file.  Truncating an old
    file in place makes ext4 flush it on close, which costs a sweep more
    than its computation; a new file has nothing to flush.  Mode "x" also
    refuses a link that appears at the name after the unlink."""
    path.unlink(missing_ok=True)
    with open(path, "x", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _prepare_out_dir(out: str) -> Path:
    """The output directory, writable and holding no manifest of an earlier
    run, so that a run that fails part way leaves no manifest behind."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    probe = out_dir / ".write_probe"
    _write_text(probe, "")
    probe.unlink()
    return out_dir


def _experiment_from(doc: ConfigDocument, args) -> ExperimentConfig:
    """Build the experiment, preferring an explicit sinr_db and falling back
    to reduction of raw signaling parameters."""
    common = dict(
        n_train=doc.get_int("experiment", "n_train"),
        mu_mag=doc.get_float("experiment", "mu_mag"),
        pfa_grid=doc.get_pfa_grid(),
        trials=doc.get_int("experiment", "trials"),
        seed=doc.get_int("experiment", "seed"),
    )
    if args.seed is not None:
        common["seed"] = args.seed
    if args.trials is not None:
        common["trials"] = args.trials
    if "sinr_db" in doc.sections["experiment"]:
        return ExperimentConfig(sinr_db=doc.get_float("experiment", "sinr_db"), **common)
    if "signaling" in doc.sections:
        return ExperimentConfig.from_raw(*signaling_params(doc), **common)
    raise ConfigurationError(
        f"{doc.path}: need either [experiment] sinr_db or a [signaling] section"
    )


def _write_run(args, command: str, curves) -> tuple[list[str], Path]:
    """Load the config, build the experiment, prepare the directory, write
    each (name, curve) that ``curves(cfg)`` yields, then manifest.json last;
    returns the emitted names and the directory."""
    started = time.perf_counter()
    doc = load_config(args.config)
    cfg = _experiment_from(doc, args)
    out_dir = _prepare_out_dir(args.out)

    emitted = []
    pfa_text = ["%.17g" % p for p in cfg.pfa_grid]  # every curve's pfa column
    for name, curve in curves(cfg):
        _write_text(out_dir / name, _roc_csv(curve, pfa_text))
        emitted.append(name)
    manifest = {
        "command": command,
        "config_path": str(doc.path),
        "config_digest": cfg.digest(),
        "output_dir": str(out_dir),
        "emitted_files": emitted,
        "seed": cfg.seed,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return emitted, out_dir


def _cmd_roc(args) -> int:
    def curves(cfg):
        yield "roc_analytic.csv", roc_analytic(cfg)
        if cfg.trials > 0:
            yield "roc_empirical.csv", roc_empirical(cfg)

    emitted, out_dir = _write_run(args, "roc", curves)
    print(f"wrote {', '.join(emitted)} to {out_dir}")
    return EXIT_OK


def _sweep_file(mu: float) -> str:
    return f"roc_mu_{mu:.4f}.csv"


def _mu_values(mu_list: str) -> list[float]:
    """--mu-list as floats whose 4-decimal file names are all distinct."""
    try:
        mu_values = [float(v) for v in mu_list.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(
            f"sweep: --mu-list must be a comma list of numbers, got {mu_list!r}") from None
    if not mu_values:
        raise _UsageError("sweep: --mu-list must contain at least one value")
    names = [_sweep_file(mu) for mu in mu_values]
    if len(set(names)) != len(names):
        raise _UsageError(
            f"sweep: --mu-list values {mu_list!r} collide at 4 decimals in the file names")
    return mu_values


def _cmd_sweep(args) -> int:
    mu_values = _mu_values(args.mu_list)  # a usage error comes before the config
    emitted, out_dir = _write_run(
        args, "sweep",
        lambda cfg: zip(map(_sweep_file, mu_values), sweep_attacker(cfg, mu_values)))
    print(f"wrote {len(emitted)} curve(s) to {out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validation import run_all

    report = run_all(fast=args.fast, seed=args.seed if args.seed is not None else 2024,
                     trials=args.trials)
    if args.json_summary:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for check in report.checks:
            print(check.line())
        print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_ERROR


def _cmd_auth(args) -> int:
    doc = load_config(args.config)
    responder = doc.get_choice("experiment", "responder", ("ltag", "mtag"))
    n_train = doc.get_int("experiment", "n_train")
    seed = args.seed if args.seed is not None else doc.get_int("experiment", "seed")
    target_pfa = doc.get_float("detector", "target_pfa")
    tx, noise = signaling_params(doc)

    # the responder takes the attacker's seat; a legitimate responder sits
    # there at fingerprint distance zero, so no mtag keys are needed
    ltag = device_from(doc, "ltag")
    scenario = build_scenario(
        reader=device_from(doc, "reader"),
        legit_tag=ltag,
        malicious_tag=ltag if responder == "ltag" else device_from(doc, "mtag"),
        tx=tx,
        noise=noise,
        n_train=n_train,
    )
    estimate, decision = run_trial(scenario, scenario.attack_link, target_pfa,
                                   RngHandle(seed))

    verdict = "ACCEPT" if decision.accepted else "REJECT"
    if args.json_summary:
        print(json.dumps({
            "responder": responder,
            "estimate_re": estimate.value.real,
            "estimate_im": estimate.value.imag,
            "statistic": decision.statistic,
            "threshold": decision.threshold_used,
            "decision": verdict,
        }, indent=2, sort_keys=True))
    else:
        print(f"responder:  {responder}")
        print(f"estimate:   {estimate.value:.9g}")
        print(f"statistic:  {decision.statistic:.9g}")
        print(f"threshold:  {decision.threshold_used:.9g}")
        print(f"decision:   {verdict}")
    return EXIT_OK if decision.accepted else EXIT_REJECT


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: every `add_argument` probes the
    terminal size, so it is built once; parsing keeps no state in it."""
    parser = _Parser(prog="backscatter-auth",
                     description="Backscatter-link fingerprint authentication simulator")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True, monte_carlo=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to the key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if monte_carlo:
            p.add_argument("--trials", type=int, default=None,
                           help="override the Monte Carlo budget")

    p_roc = sub.add_parser("roc", help="analytic + empirical ROC curves to CSV")
    add_common(p_roc)
    p_roc.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_roc.set_defaults(func=_cmd_roc)

    p_sweep = sub.add_parser("sweep", help="analytic ROC curves over attacker distances")
    add_common(p_sweep)
    p_sweep.add_argument("--mu-list", required=True,
                         help="comma list of fingerprint distances, e.g. 0.5,1.0,2.0")
    p_sweep.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in oracle/Monte-Carlo checks")
    add_common(p_val, needs_config=False)
    p_val.add_argument("--fast", action="store_true", help="reduced budget, < 30 s")
    p_val.add_argument("--json-summary", action="store_true", help="machine-readable report")
    p_val.set_defaults(func=_cmd_validate)

    p_auth = sub.add_parser("auth", help="one authentication episode from a scenario config")
    add_common(p_auth, monte_carlo=False)
    p_auth.add_argument("--json-summary", action="store_true", help="machine-readable result")
    p_auth.set_defaults(func=_cmd_auth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except (ConfigurationError, ParameterError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
