"""A/B benchmark of two commits: alternating pairs of perfbench runs.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_7.json
        [--pairs 10] [--seconds 36] [--seed 71] [--workloads a,b]
        [--traced-seeds 73,74]

Each commit is exported with ``git archive`` into its own clean directory
(under ``.bench_build/pairs/``), so only committed files are measured.  For
every workload named in BENCHMARK.json (or ``--workloads``), pair i runs
``perfbench/run.py --trace 0`` once in each export, the parent first when i
is even and the change first when i is odd, so a drift of the host's speed
falls on both sides alike.  ``--traced-seeds`` adds ``--trace 1`` runs of
each of those workloads on both sides, one per seed and side, for the
per-layer split.

The result file holds every run's end-to-end metrics, a per-metric summary
(median and quartiles per side, pairs in which the change was lower, the
median change in percent, the gap between the medians over the parent's
interquartile range and, for each metric BENCHMARK.json gates, a verdict:
better, unresolved, worse or unchanged, see ``verdict``) and the versions
the runs reported.  It is rewritten
after every run, so an interrupted measurement keeps its finished pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the parent")
    parser.add_argument("--change", required=True, help="commit measured as the change")
    parser.add_argument("--out", required=True, type=Path, help="result file (BENCH_<n>.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--traced-seeds", default="",
                        help="comma-separated seeds of traced runs per workload and side")
    return parser.parse_args(argv)


def export(rev: str, dest: Path) -> str:
    """The committed files of ``rev`` in a fresh ``dest``; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its metrics, with the meta line's
    untimed notes and versions."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    record = {name: m["value"] for name, m in result["metrics"].items()}
    record.update(attempted=result["attempted"], failed=result["failed"],
                  correct=result["correct"])
    if not trace:
        record["op_p50_ms"] = meta["op_p50_ms"]
        if "episode_us" in meta:
            record["episode_p50_us"] = meta["episode_us"]["p50"]
    # untimed notes a benchmark may drop read as None
    record["_meta"] = {"versions": meta["versions"], "nproc": meta.get("nproc"),
                       "threads_env": meta.get("threads_env")}
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """The reading of one lower-is-better metric over the pairs
    (parent[i], change[i]) with the worsening ``bound`` that BENCHMARK.json
    fixes for it, a fraction of the parent's median.  Checked in order:

    better      the change is lower in at least 9/10 of the pairs (ties
                count for neither), and its median is lower than the
                parent's by more than the parent's interquartile range;
    unresolved  the parent's interquartile range exceeds bound times its
                median, and not every change run is lower than every
                parent run;
    worse       the change's median exceeds the parent's by more than bound;
    unchanged   none of these.
    """
    side_p, side_c = quartiles(parent), quartiles(change)
    iqr = side_p["q3"] - side_p["q1"]
    lower = sum(c < p for p, c in zip(parent, change))
    if 10 * lower >= 9 * len(parent) and side_p["median"] - side_c["median"] > iqr:
        return "better"
    if iqr > bound * side_p["median"] and not max(change) < min(parent):
        return "unresolved"
    if side_c["median"] > (1.0 + bound) * side_p["median"]:
        return "worse"
    return "unchanged"


def summarize(pairs: list[dict], names: list[str], bounds: dict[str, float]) -> dict:
    """Per metric in ``names``: each side's quartiles, the pairs in which the
    change was lower and the median gap, plus a ``verdict`` for each metric
    that ``bounds`` gates."""
    summary = {}
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        if len(parent) < 2:
            continue
        side_p, side_c = quartiles(parent), quartiles(change)
        iqr = side_p["q3"] - side_p["q1"]
        gap = abs(side_c["median"] - side_p["median"])
        summary[name] = {
            "parent": side_p,
            "change": side_c,
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "median_change_pct": 100.0 * (side_c["median"] / side_p["median"] - 1.0),
            "median_gap_over_parent_iqr": gap / iqr if iqr > 0 else None,
        }
        if name in bounds:
            summary[name]["verdict"] = verdict(parent, change, bounds[name])
    summary["failed"] = {
        "parent": sum(p["parent"]["failed"] for p in pairs),
        "change": sum(p["change"]["failed"] for p in pairs),
        "attempted_parent": sum(p["parent"]["attempted"] for p in pairs),
        "attempted_change": sum(p["change"]["attempted"] for p in pairs),
    }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traced_seeds = [int(s) for s in args.traced_seeds.split(",") if s]
    work = ROOT / ".bench_build" / "pairs"
    trees = {"parent": work / "parent", "change": work / "change"}
    shas = {side: export(rev, trees[side])
            for side, rev in (("parent", args.parent), ("change", args.change))}

    doc = {
        "what": (f"{args.pairs} alternating pairs of untraced {args.seconds:g} s runs of "
                 "perfbench/run.py per workload: the parent commit against the change, both "
                 "run from git-archive exports of their committed files; pair i runs the "
                 "parent first when i is even. Plus traced runs of each workload for the "
                 "per-layer split. Written by tools/bench_pairs.py."),
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "traced_command": f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {args.seconds:g} --trace 1",
        "parent": shas["parent"],
        "change": shas["change"],
        "seed": args.seed,
        "run_seconds": args.seconds,
        "workloads": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    def measured(side: str, workload: str, seed: int, trace: int) -> dict:
        record = run_bench(trees[side], workload, seed, args.seconds, trace)
        meta = record.pop("_meta")
        doc.update(nproc=meta["nproc"], threads_env=meta["threads_env"],
                   versions={k: v for k, v in sorted(meta["versions"].items())
                             if k != "backscatter_auth"})
        doc[f"package_version_{side}"] = meta["versions"]["backscatter_auth"]
        return record

    for workload in workloads:
        pairs: list[dict] = []
        entry = doc["workloads"][workload] = {"pairs_complete": 0, "summary": {}, "pairs": pairs}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = measured(side, workload, args.seed, 0)
            pairs.append(pair)
            extra = ["op_p50_ms"] + (["episode_p50_us"] if "episode_p50_us" in pair["parent"] else [])
            entry.update(pairs_complete=len(pairs),
                         summary=summarize(pairs, [*bounds, *extra], bounds))
            save()
            p90 = {side: pair[side]["op_p90_ms"] for side in ("parent", "change")}
            print(f"{workload} pair {i}: op_p90_ms parent {p90['parent']:.2f} "
                  f"change {p90['change']:.2f}", flush=True)

    layers = [m["name"] for m in spec["per_layer"]]
    for workload in workloads if traced_seeds else ():
        runs: list[dict] = []
        traced = doc.setdefault("traced", {})[workload] = {"runs": runs, "median": {}}
        for k, seed in enumerate(traced_seeds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                record = measured(side, workload, seed, 1)
                runs.append({"side": side, "seed": seed, "failed": record["failed"],
                             **{name: record[name] for name in layers}})
                save()
        for side in ("parent", "change"):
            traced["median"][side] = {
                name: statistics.median(r[name] for r in runs if r["side"] == side)
                for name in layers}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
