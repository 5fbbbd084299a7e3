"""Benchmark for backscatter-auth: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

One closed-loop caller repeats the workload's op in process (the next op
starts when the previous one ends) for --seconds, after an untimed
warm-up, with the program at its defaults: BACKSCATTER_AUTH_THREADS is
unset, which means one engine worker per CPU.  The inputs are config files
generated from --seed (see workloads.py); the program sees only those.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 is a
separate run that alternates untraced ops with ops that have spans around
the package's public calls (tracing.py), and reports the per-layer metrics.
Every op's output is checked against an oracle that does not use the
package (checks.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from ops import THREADS_ENV, AuthOps, CliOps, import_package
from tracing import Tracer
from workloads import LAYER_MOVES, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20  # fresh interpreters per run; setup_s is their median
WARMUP_SECONDS = 2.0  # untimed: the first roc ops run up to 2x slower
TAIL_BEYOND = 10
MIN_OPS = 10 * TAIL_BEYOND + 1  # so the tail percentile is at least the 90th
MIN_TRACED_OPS = 2 * TAIL_BEYOND + 1  # per kind (traced, untraced) in a traced run
MIN_WARMUP_OPS = 3

# Per-layer metric -> span whose self time it is, per traced op.  Together
# with experiments.unaccounted_s these partition trace.wall_s.
PARTITION = {
    "config.load_s": "config.load",
    "cli.write_s": "cli.main",
    "experiments.analytic_s": "experiments.analytic",
    "detection.threshold_s": "detection.threshold",
    "special.marcum_s": "special.marcum",
    "experiments.empirical_s": "experiments.empirical",
    "rng.spawn_s": "rng.spawn",
    "rng.draw_s": "rng.draw",
    "experiments.assemble_project_s": "experiments.assemble_project",
    "detection.distance_s": "detection.distance",
    "experiments.sort_count_s": "experiments.sort_count",
    "channel.make_link_s": "channel.make_link",
    "signaling.exchange_s": "signaling.exchange",
    "estimation.ls_estimate_s": "estimation.ls_estimate",
    "detection.authenticate_s": "detection.authenticate",
    "experiments.run_trial_s": "experiments.run_trial",
}
PER_CALL_US = ("channel.make_link", "signaling.exchange", "estimation.ls_estimate",
               "detection.authenticate")
MARCUM_BANDS = ("a_lt_10", "a_10_100", "a_100_1000", "a_ge_1000")
# Printed and kept in the meta line, but not in BENCHMARK.json.  On a shared
# 2-vCPU host, pure-Python code ran up to 2x slower while neighbours were
# busy, in phases of tens of seconds to minutes (numpy-bound code slowed about
# half as much), so the median and the mean of a run follow how much of it
# fell in the fast phase.  The 90th percentile and the tail sit in the slow
# phase, which nearly every run reaches, and stay steady.
UNGATED = (("op_p50_ms", "ms"), ("work_per_s", "items/s"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(src: Path, config: Path) -> tuple[float, float]:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src), str(config)],
        capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record["import_s"], record["config_load_s"]


def warm_up(ops, seconds: float) -> int:
    """Untimed ops for `seconds` (at least MIN_WARMUP_OPS); returns the next op index."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_WARMUP_OPS or time.perf_counter() < deadline:
        ops.run(i)
        i += 1
    return i


def measure(ops, seconds: float, start: int, probe, tracer: Tracer | None):
    """Ops back to back for `seconds` in all, with the set-up probes spread
    evenly over the same interval so both sample the host's drifting speed
    alike; probe time is not op time.
    With a tracer, traced and untraced ops alternate, so trace.overhead_s
    compares ops run side by side.  Returns (untraced ns, traced ns, probes,
    next op index)."""
    untraced, traced, setup = array("q"), array("q"), []
    now = time.perf_counter()
    deadline, next_probe = now + seconds, now
    i = start
    min_ops = MIN_OPS if tracer is None else MIN_TRACED_OPS
    while (len(setup) < SETUP_PROBES or len(untraced) < min_ops
           or (tracer is not None and len(traced) < min_ops) or now < deadline):
        if len(setup) < SETUP_PROBES and now >= next_probe:
            setup.append(probe())
            next_probe += seconds / SETUP_PROBES
        if tracer is not None and i % 2:
            tracer.op_id = i
            traced.append(ops.run(i, tracer))
        else:
            untraced.append(ops.run(i))
        i += 1
        now = time.perf_counter()
    return (np.frombuffer(untraced, dtype=np.int64), np.frombuffer(traced, dtype=np.int64),
            setup, i)


def end_to_end_metrics(w, ops, durations, setup) -> tuple[dict, dict]:
    d = np.sort(durations)
    n = d.size
    tail = d[n - 1 - TAIL_BEYOND]
    metrics = {
        "setup_s": statistics.median(imp + cfg for imp, cfg in setup),
        "op_p90_ms": float(np.percentile(d, 90)) / 1e6,
        "op_tail_ms": float(tail) / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "op_tail_samples": int(n),
        # not gated (see UNGATED)
        "op_p50_ms": float(np.median(d)) / 1e6,
        "work_per_s": ops.work_per_op * n / (float(d.sum()) / 1e9),
        "work_unit": w.work_unit,
        "work_per_op": ops.work_per_op,
    }
    if w.kind == "auth":
        episodes = np.frombuffer(ops.episode_ns, dtype=np.int64)
        notes["episode_us"] = {"p50": float(np.percentile(episodes, 50)) / 1e3,
                               "p99": float(np.percentile(episodes, 99)) / 1e3,
                               "count": int(episodes.size)}
    return metrics, notes


def layer_metrics(w, ops, tracer: Tracer, n: int, untraced, setup) -> tuple[dict, dict]:
    def per_op(ns: int) -> float:
        return ns / n / 1e9

    incl, calls, tally = tracer.incl_ns, tracer.calls, tracer.tally
    m = {name: per_op(tracer.self_ns.get(span, 0)) for name, span in PARTITION.items()}
    m["trace.wall_s"] = per_op(tracer.top_level_ns)
    m["experiments.unaccounted_s"] = m["trace.wall_s"] - sum(m[name] for name in PARTITION)
    for span in PER_CALL_US:
        m[span + "_us"] = incl[span] / calls[span] / 1e3 if calls[span] else 0.0

    m["special.marcum_calls"] = calls["special.marcum"] / n
    m["special.marcum_calls.b_le_a"] = tally["marcum.b_le_a"] / n
    m["special.marcum_calls.b_gt_a"] = tally["marcum.b_gt_a"] / n
    for band in MARCUM_BANDS:
        k = tally["marcum.calls." + band]
        m["special.marcum_us." + band] = tally["marcum.ns." + band] / k / 1e3 if k else 0.0
    m["detection.pmd_tail_lost"] = ops.pmd_tail_lost()

    engine_calls = calls["experiments.empirical_1thread"]
    m["experiments.empirical_1thread_s"] = per_op(incl["experiments.empirical_1thread"])
    m["experiments.parallel_speedup"] = (
        incl["experiments.empirical_1thread"] / incl["experiments.empirical"]
        if engine_calls else 0.0)
    m["experiments.shards"] = (calls["experiments.assemble_project"] / engine_calls
                               if engine_calls else 0.0)
    m["experiments.workers"] = ops.max_workers
    # a trial is one engine trial, or one episode on auth-episodes
    trials = engine_calls * w.trials if engine_calls else (
        n * ops.work_per_op if w.kind == "auth" else 0)
    m["rng.normals_per_trial"] = tally["rng.normals"] / trials if trials else 0.0
    m["rng.bytes_drawn_computed"] = 8.0 * tally["rng.normals"] / n

    m["setup.import_s"] = statistics.median(imp for imp, _ in setup)
    m["setup.config_load_s"] = statistics.median(cfg for _, cfg in setup)
    op_span = "auth.burst" if w.kind == "auth" else "cli.main"
    m["trace.overhead_s"] = (incl[op_span] / calls[op_span] - float(untraced.mean())) / 1e9
    m["trace.ops"] = n
    notes = {
        # self times of all spans add up to the traced wall time exactly (ns)
        "partition_residual_ns": sum(tracer.self_ns.values()) - tracer.top_level_ns,
        "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return m, notes


def run_workload(args, spec) -> int:
    w = WORKLOADS[args.workload]
    threads_env = os.environ.pop(THREADS_ENV, None)  # the program runs at its defaults
    src = ROOT / "src"
    bench_dir = ROOT / ".bench_build" / "perfbench"
    work_dir = bench_dir / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = write_inputs(w, args.seed, work_dir)
        pkg = import_package(src)
        ops = (AuthOps if w.kind == "auth" else CliOps)(pkg, w, inputs, work_dir)
        tracer = Tracer() if args.trace else None
        with open(os.devnull, "w") as sink, redirect_stdout(sink):  # cli.main prints per op
            i = warm_up(ops, WARMUP_SECONDS)
            untraced, traced, setup, attempted = measure(
                ops, args.seconds, i, lambda: probe_setup(src, inputs.configs[0]), tracer)
        if tracer is None:
            metrics, notes = end_to_end_metrics(w, ops, untraced, setup)  # reads peak RSS first
        ops.check_outputs()  # loads scipy
        if tracer is not None:
            metrics, notes = layer_metrics(w, ops, tracer, len(traced), untraced, setup)
            tracer.write(bench_dir / f"spans-{w.name}.csv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    for got in (set(metrics), set(LAYER_MOVES) if args.trace else names):
        if got != names:
            print(f"perfbench: metrics {sorted(got ^ names)} differ from BENCHMARK.json",
                  file=sys.stderr)
            return 1
    correct = ops.failed == 0 and not ops.run_problems
    meta = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "versions": {"backscatter_auth": pkg.version, "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        "nproc": os.cpu_count(),
        "threads_env": "unset" if threads_env is None else f"unset by the benchmark (was {threads_env!r})",
        "engine_workers_auto": min(os.cpu_count() or 1, math.ceil(w.trials / pkg.experiments.SHARD_TRIALS)),
        "trials": w.trials, "n_train": w.n_train,
        "shard_trials": pkg.experiments.SHARD_TRIALS,
        "ops_attempted": attempted, "ops_failed": ops.failed,
        "failed_frac": ops.failed / attempted,
        "problems": ops.problems + ops.run_problems,
        **notes,
    }
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: "
          f"{len(untraced) + len(traced)} measured ops, {attempted} checked, {ops.failed} failed")
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  failed_frac = {ops.failed / attempted:.6g} ratio")
    for name, unit in UNGATED if not args.trace else ():
        print(f"  {name} = {notes[name]:.6g} {unit} (not gated)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, in turn; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("meta ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "backscatter_auth" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
