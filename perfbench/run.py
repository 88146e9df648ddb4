"""Benchmark of the uavlc pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload meta-train --seed 1 --seconds 50 --trace 0

Workloads (see BENCHMARK.json for why each exists): `meta-train`,
`greedy-sweep`. A run repeats rounds of the workload until
`--seconds` have passed (at least three rounds) and reports the median over
rounds. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced rounds and prints the per-layer metrics. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Before it the run prints the run environment, the
behaviour fingerprint and one line per metric.

The library is imported from `src/` of the checkout; the benchmark sets no
thread count or other machine setting, it only records them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
MIN_ROUNDS = 3

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("eval_s", "s"),
    ("peak_rss_mb", "MiB"), ("ok_frac", "ratio"),
]
# Phase times that are zero on some workload, and quality outcomes whose
# spread across seeds comes from the learned policies, not from the code:
# reported with the per-layer metrics, which carry no bound.
OUTCOMES = [
    ("train_s", "s"), ("adapt_s", "s"),
    ("final_p_tot_w", "W"), ("feasible_frac", "ratio"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Per-layer metric names and units, in report order."""
    spans = {
        "nets.Mlp.forward": ("calls", "self_s"),
        "nets.Mlp.backward": ("calls", "self_s"),
        "nets.Adam.step": ("calls", "self_s"),
        "nets.soft_update": ("calls", "self_s"),
        "sac.SacAgent.update": ("calls", "self_s", "p50_us", "p99_us"),
        "sac.SacAgent.critic_grads": ("self_s",),
        "sac.SacAgent.actor_grads": ("self_s",),
        "sac.SacAgent.act": ("calls", "self_s"),
        "sac.SacAgent.clone": ("calls", "self_s"),
        "sac.ReplayBuffer.add": ("self_s",),
        "sac.ReplayBuffer.sample": ("self_s",),
        "meta.MetaSac.meta_train": ("self_s",),
        "meta.MetaSac.meta_adapt": ("self_s",),
        "meta.MetaSac.inner_adapt": ("calls", "self_s"),
        "meta.MetaSac.outer_update": ("calls", "self_s"),
        "env.step": ("calls", "self_s", "p50_us", "p99_us"),
        "env.decode_action": ("self_s",),
        "env.reset": ("calls", "self_s"),
        "channel.channel_matrix": ("calls", "self_s", "p50_us"),
        "channel.perturb_csi": ("self_s",),
        "metrics.check_p1_feasibility": ("calls", "self_s", "p50_us"),
        "metrics.per_user_rate": ("calls", "self_s"),
        "metrics.order_users": ("self_s",),
        "dimming.select_leds": ("self_s",),
        "dimming.project_beamformer": ("self_s",),
        "uav.propulsion_power": ("self_s",),
        "uav.clamp_velocity": ("self_s",),
        "uav.step_kinematics": ("self_s",),
        "baselines.GreedyPolicy.call": ("calls", "self_s", "p50_us"),
        "baselines.cascade_beamformer": ("self_s",),
        "baselines.noma_cascade_amplitudes": ("calls", "self_s"),
        "baselines.RandomPolicy.call": ("self_s",),
        "harness.run_experiment": ("self_s",),
        "harness.run_scheme": ("self_s",),
        "harness.evaluate": ("calls", "self_s"),
    }
    units = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
    out = [(f"{span}.{stat}", units[stat])
           for span, stats in spans.items() for stat in stats]
    return out + [
        ("env.feasible_frac", "ratio"),
        ("baselines.rate_evals_per_slot", "calls/slot"),
        ("harness.csv_bytes", "bytes"),
        ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
    ] + OUTCOMES


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["meta-train", "greedy-sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: a few-second smoke size")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import and set-up once, print it")
    return p.parse_args(argv)


def import_library():
    """Import uavlc and the benchmark modules from this checkout only."""
    src = ROOT / "src"
    if not (src / "uavlc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no uavlc sources under {src}")
    sys.path.insert(0, str(src))
    import uavlc
    if Path(uavlc.__file__).resolve().parent != src / "uavlc":
        sys.exit(f"perfbench: imported uavlc from {uavlc.__file__}, "
                 f"not from {src}")
    import workloads
    return workloads


def setup_probe(args) -> float:
    """Seconds for import plus one workload set-up, in a fresh process."""
    t0 = time.perf_counter()
    workloads = import_library()
    size = workloads.SIZES[args.size]
    work_dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        workloads.setup(args.workload, args.seed, size, work_dir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--size", args.size,
           "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            sys.exit(f"perfbench: set-up probe exited {res.returncode}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_environment(args) -> dict:
    import importlib.metadata

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))
                        and k.endswith("NUM_THREADS")},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def percentile_us(durations, q):
    if not durations:
        return 0.0
    s = sorted(durations)
    return 1e6 * s[min(len(s) - 1, int(q * len(s)))]


def layer_metrics(tracer_rounds, plain_rounds, traced_rounds) -> dict:
    """Per-layer values per traced round; outcomes from untraced ones."""
    n = len(tracer_rounds)
    out = {}
    calls, self_s, durs = {}, {}, {}
    rows = feasible = rate_calls = 0
    for t in tracer_rounds:
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["durations"].items():
            durs.setdefault(k, []).extend(v)
        rows += t["rows"]
        feasible += t["feasible_rows"]
        rate_calls += t["baseline_rate_calls"]
    for name, _ in per_layer_names():
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(span, 0) / n
        elif stat == "self_s":
            out[name] = self_s.get(span, 0.0) / n
        elif stat == "p50_us":
            out[name] = percentile_us(durs.get(span), 0.50)
        elif stat == "p99_us":
            out[name] = percentile_us(durs.get(span), 0.99)
    greedy_slots = calls.get("baselines.GreedyPolicy.call", 0)
    # rounds alternate untraced, traced: compare each pair of neighbours
    overhead = median([t.times["wall_s"] - p.times["wall_s"]
                       for p, t in zip(plain_rounds, traced_rounds)])
    unattributed = median([r.times["wall_s"] - t["top_level_s"]
                           for r, t in zip(traced_rounds, tracer_rounds)])
    out.update({
        "env.feasible_frac": feasible / rows if rows else 0.0,
        "baselines.rate_evals_per_slot":
            rate_calls / greedy_slots if greedy_slots else 0.0,
        "harness.csv_bytes": median([r.csv_bytes for r in traced_rounds]),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": overhead,
    })
    out.update(outcomes(plain_rounds))
    return out


def outcomes(rounds) -> dict:
    """Phase times (median over rounds) and the first round's quality."""
    first = rounds[0]
    return {
        "train_s": median([r.times["train_s"] for r in rounds]),
        "adapt_s": median([r.times["adapt_s"] for r in rounds]),
        "final_p_tot_w": statistics.fmean(first.p_tot) if first.p_tot else 0.0,
        "feasible_frac":
            statistics.fmean(first.feasible) if first.feasible else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args)))
        return 0

    workloads = import_library()
    setup_times = measure_setup(args)
    size = workloads.SIZES[args.size]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    work_dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    rounds, plain, traced, tracer_rounds = [], [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        while (len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline
               or (tracer is not None and len(traced) < 2)):
            state = workloads.setup(args.workload, args.seed, size, work_dir)
            if tracer is not None and len(rounds) % 2 == 1:
                with tracer.recording():
                    r = workloads.run_round(args.workload, state, size)
                spans = tracer.snapshot()
                r.attempted += spans["episodes"]
                r.failed += spans["bad_episodes"]
                if spans["bad_episodes"]:
                    r.problems.append(f"{spans['bad_episodes']} stepped "
                                      f"episodes broke C3/C8/C9/C6/C7")
                traced.append(r)
                tracer_rounds.append(spans)
            else:
                r = workloads.run_round(args.workload, state, size)
                plain.append(r)
            rounds.append(r)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    first = rounds[0]
    fingerprint = first.fingerprint()
    stable = all(r.fingerprint() == fingerprint for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = sorted({p for r in rounds for p in r.problems})

    env = run_environment(args)
    env["rounds"] = len(rounds)
    env["traced_rounds"] = len(traced)
    env["config_fields_not_in_library"] = state["dropped"]
    print("environment " + json.dumps(env, sort_keys=True))
    print("fingerprint " + json.dumps(
        {**fingerprint, "stable_across_rounds": stable}, sort_keys=True))
    print("rounds " + json.dumps({k: [r.times[k] for r in rounds]
                                  for k in rounds[0].times}))
    for p in problems[:20]:
        print("problem " + p, file=sys.stderr)

    if tracer is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": median(setup_times),
            "wall_s": median([r.times["wall_s"] for r in plain]),
            "eval_s": median([r.times["eval_s"] for r in plain]),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = dict(END_TO_END)
        for (name, unit), value in zip(OUTCOMES, outcomes(plain).values()):
            print(f"info {name} {value!r} {unit}")
    else:
        values = layer_metrics(tracer_rounds, plain, traced)
        units = dict(per_layer_names())
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    correct = stable and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
