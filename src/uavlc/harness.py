"""Experiment orchestration: scheme evaluation, sweeps and CSV emission.

Every result row is reproducible bit-for-bit from its key (config hash,
scheme, sweep variable, sweep value, seed), from which all its randomness
is derived, and the sweep's budgets. The CSV's first line records the
config hash and the budgets, and a sweep resumes only a CSV that matches
both. `seed_tasks` is the definition of each seed's evaluation task: one
draw per seed, from a seed that does not depend on the sweep value, at the
sweep value with the most users; each unit takes its first K users. So
sweep points share common random numbers, and the users of a K sweep nest.

The rows are also identical for any worker count. A sweep is a list of
independent units, one per (sweep value, seed, scheme), plus one meta-
training per sweep value when meta-sac is requested. Each unit seeds fresh
generators from its key and builds its own env, policy and agent; a
meta-sac unit adapts a clone of its value's meta-trained state, which it
never changes. So no unit reads anything another unit wrote, and it gives
the same floats in whichever process it runs. `parallel_map` hands the
results back in input order, and the parent alone writes the CSV, row by
row in the serial order, as the results arrive. A meta-training run in
this process forks workers for its own tasks (`MetaSac.meta_train`, same
floats for any worker count); one run in a `parallel_map` worker stays in
it. Both fork by `procs.forked`.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .baselines import GreedyPolicy, RandomPolicy
from .config import SystemConfig
from .env import Task, VlcUavEnv, rollout, sample_task
from .meta import MetaSac, require_meta_trainable
from .metrics import energy_efficiency
from .procs import (fork_context, forked, ready, receive, value,
                    worker_count)
from .sac import SacAgent, train_sac

SWEEP_VARS = {"K": "n_users", "P_max": "p_max", "R_min": "r_min",
              "N": "n_leds"}
# the schemes that train nothing: name -> policy(env, seed)
POLICIES = {"greedy": lambda env, seed: GreedyPolicy(env),
            "random": RandomPolicy}
SCHEMES = ("meta-sac", "sac", *POLICIES)
_COUNTS = ("n_users", "n_leds")     # swept as ints


@dataclass
class ExperimentSpec:
    scenario: str
    sweep_var: str                    # one of SWEEP_VARS
    sweep_values: list
    seeds: int
    schemes: list
    out_path: str
    eval_episodes: int = 3
    train_episodes: int = 60          # plain-SAC budget per point
    adapt_episodes: int = 20          # meta-adaptation budget per point
    meta_iterations: int = 100

    def __post_init__(self):
        if self.sweep_var not in SWEEP_VARS:
            raise ValueError(f"sweep variable must be one of "
                             f"{sorted(SWEEP_VARS)}")
        if not self.sweep_values:
            raise ValueError("sweep values must be non-empty")
        # a value's seeds must not depend on how it is written: 2 is 2.0
        self.sweep_values = [float(v) for v in self.sweep_values]
        if SWEEP_VARS[self.sweep_var] in _COUNTS:
            for v in self.sweep_values:
                if not v.is_integer():
                    raise ValueError(f"{self.sweep_var} values must be "
                                     f"whole numbers, got {v!r}")
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if self.eval_episodes < 1:
            raise ValueError(f"need at least one evaluation episode, got "
                             f"{self.eval_episodes}")
        for budget in ("train_episodes", "adapt_episodes",
                       "meta_iterations"):
            if getattr(self, budget) < 0:
                raise ValueError(f"{budget} must not be negative, got "
                                 f"{getattr(self, budget)}")
        if not self.schemes:
            raise ValueError("scheme list must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        # a repeat's rows would share their CSV keys
        for what, items in (("sweep value", self.sweep_values),
                            ("scheme", self.schemes)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"{what} {item!r} is repeated")


@dataclass
class ResultRow:
    scheme: str
    sweep_var: str
    sweep_value: float
    seed: int
    mean_p_tot: float
    mean_sum_rate: float
    mean_ee: float
    feasibility_fraction: float

    def key(self) -> tuple:
        return _row_key(self.scheme, self.sweep_var, self.sweep_value,
                        self.seed)


def _row_key(scheme: str, sweep_var: str, sweep_value: float,
             seed: int) -> tuple:
    """A row's identity in the CSV; a float's repr round-trips."""
    return (scheme, sweep_var, repr(sweep_value), seed)


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def parallel_map(fn, units, workers: int | None = None):
    """Iterator over `fn(unit)` for each unit, in input order.

    Up to `worker_count(workers, len(units))` `procs.forked` workers run
    the units (see `procs.fork_context` for when this process runs them
    instead), each taking the next unit index when it is free; results
    arrive as soon as they and every earlier one are done. The workers
    inherit `fn` and the units from the fork, so neither need be
    picklable; the results are pickled. A unit's exception is raised at
    its place in the iteration, and a worker that exits without replying
    raises `RuntimeError`.
    """
    units = list(units)
    ctx, n = fork_context(workers, len(units))
    if ctx is None:
        return map(fn, units)
    return _forked_map(ctx, fn, units, n)


def _forked_map(ctx, fn, units, n):
    todo, running, replies = iter(range(len(units))), {}, {}
    with forked(ctx, [lambda i: fn(units[i])] * n) as conns:
        def start(conn):
            i = next(todo, None)
            if i is not None:
                conn.send(i)
                running[conn] = i

        for conn in conns:
            start(conn)
        for i in range(len(units)):
            while i not in replies:
                for conn in ready(list(running)):
                    replies[running.pop(conn)] = receive(conn)
                    start(conn)
            yield value(replies.pop(i))


def evaluate(env: VlcUavEnv, policy, episodes: int, seed: int) -> dict:
    """Deterministic multi-episode evaluation of a raw-action policy;
    refuses fewer than one episode, whose means would be NaN."""
    if episodes < 1:
        raise ValueError(f"need at least one evaluation episode, got "
                         f"{episodes}")
    p_tot, sum_rate, ee, feas = [], [], [], []
    for ep in range(episodes):
        rollout(env, policy, derive_seed("eval", seed, ep))
        trace = env.trace
        p_tot.append(trace.mean("p_total"))
        sum_rate.append(trace.mean("sum_rate"))
        ee.append(float(np.mean([energy_efficiency(r["sum_rate"],
                                                   r["p_total"])
                                 for r in trace.rows])))
        feas.append(trace.mean("feasible"))
    return {"mean_p_tot": float(np.mean(p_tot)),
            "mean_sum_rate": float(np.mean(sum_rate)),
            "mean_ee": float(np.mean(ee)),
            "feasibility_fraction": float(np.mean(feas))}


def make_agent_policy(agent: SacAgent):
    return lambda obs: agent.act(obs, deterministic=True)


def seed_tasks(cfgs: list[SystemConfig], spec: ExperimentSpec,
               base_hash: str) -> list[Task]:
    """Each seed's evaluation task, drawn at the config with the most
    users; a unit at config `c` takes `first_users(task, c.n_users)`."""
    widest = max(cfgs, key=lambda c: c.n_users)
    return [sample_task(widest, np.random.default_rng(
                derive_seed(base_hash, spec.sweep_var, "task", seed)))
            for seed in range(spec.seeds)]


def first_users(task: Task, n_users: int) -> Task:
    """The task with only its first `n_users` users."""
    return Task(user_positions=task.user_positions[:n_users],
                q_init=task.q_init, seed=task.seed)


def _apply_sweep(cfg: SystemConfig, var: str, value) -> SystemConfig:
    attr = SWEEP_VARS[var]
    if attr in _COUNTS:
        value = int(value)
    return cfg.replace(**{attr: value})


def run_scheme(scheme: str, cfg: SystemConfig, task: Task, seed: int,
               spec: ExperimentSpec,
               meta: MetaSac | None = None) -> dict:
    env = VlcUavEnv(cfg, task)
    if scheme in POLICIES:
        policy = POLICIES[scheme](env, derive_seed(scheme, seed))
    elif scheme == "sac":
        policy = make_agent_policy(train_sac(
            env, cfg, derive_seed("sac", seed), spec.train_episodes)[0])
    elif scheme == "meta-sac":
        if meta is None:
            raise ValueError("meta-sac requires a meta-trained state")
        policy = make_agent_policy(meta.meta_adapt(
            task, spec.adapt_episodes, seed=derive_seed("adapt", seed)))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return evaluate(env, policy, spec.eval_episodes, seed)


def meta_train_for(cfg: SystemConfig, seed: int, task_seed: int,
                   iterations: int,
                   workers: int | None = None) -> tuple[MetaSac, list[dict]]:
    """A fresh `MetaSac` seeded `seed`, meta-trained for `iterations` on
    tasks drawn by a generator seeded `task_seed`, on up to `workers`
    processes; (meta, history)."""
    probe = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    meta = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=seed)
    task_rng = np.random.default_rng(task_seed)
    history = meta.meta_train(lambda: sample_task(cfg, task_rng), iterations,
                              workers)
    return meta, history


# the per-point budgets of a sweep, which its CSV header records
BUDGETS = ("eval_episodes", "train_episodes", "adapt_episodes",
           "meta_iterations")
_FIELDS = ["scheme", "sweep_var", "sweep_value", "seed", "mean_p_tot",
           "mean_sum_rate", "mean_ee", "feasibility_fraction"]


class SweepRefused(ValueError):
    """A sweep `run_experiment` refuses before it writes a row: one whose
    sweep value makes an invalid config or, with meta-sac, one
    meta-training cannot run, or (`ResultFileError`) one whose result file
    it cannot open or resume; the message says why."""


class ResultFileError(SweepRefused):
    """A result file a sweep refuses: one it cannot open, or one it cannot
    resume; the message says why."""


def _saved_rows(path: str, config_hash: str, spec: ExperimentSpec) -> dict:
    """Rows already in the CSV, by key; refuses a file of another config
    or other budgets, one ending in a partly written row and a row with a
    non-finite mean.

    Python's float repr round-trips, so a row read back equals the row
    that was written.
    """
    if not os.path.exists(path):
        return {}
    with open(path, newline="") as f:
        header = f.readline()
        lines = [ln for ln in f if not ln.startswith("#")]
    saved = re.match(r"# config_hash=(\S+)", header)
    if saved is None or saved.group(1) != config_hash:
        found = saved.group(1) if saved else "none"
        raise ResultFileError(f"{path} holds rows of config hash {found}, "
                              f"not {config_hash}; write this sweep to "
                              f"another file")
    for budget in BUDGETS:
        found = re.search(rf" {budget}=(\S+)", header)
        found = found.group(1) if found else "none"
        if found != str(getattr(spec, budget)):
            raise ResultFileError(
                f"{path} holds rows of {budget} {found}, not "
                f"{getattr(spec, budget)}; write this sweep to another file")
    if lines and not lines[-1].endswith("\n"):
        raise ResultFileError(f"{path} ends in a partly written row; "
                              f"remove it to resume the sweep")
    rows = {}
    for line in csv.DictReader(lines):
        row = ResultRow(scheme=line["scheme"], sweep_var=line["sweep_var"],
                        sweep_value=float(line["sweep_value"]),
                        seed=int(line["seed"]),
                        **{k: float(line[k]) for k in _FIELDS[4:]})
        if not all(math.isfinite(getattr(row, k)) for k in _FIELDS[4:]):
            raise ResultFileError(
                f"{path} holds a non-finite result in row "
                f"{','.join(map(str, row.key()))}; remove that row to "
                f"recompute it")
        rows[row.key()] = row
    return rows


def run_experiment(spec: ExperimentSpec, cfg: SystemConfig,
                   workers: int | None = None) -> list[ResultRow]:
    """Run the sweep and append its missing rows to the CSV.

    A sweep value that makes an invalid config, or with meta-sac requested
    a config meta-training cannot run (`require_meta_trainable`), is
    refused (`SweepRefused`) before the CSV is opened. Rows whose key the
    CSV already holds are read back, not recomputed, so a cut-short sweep
    resumes where it stopped; a CSV of another config or other budgets is
    refused (`ResultFileError`). The other units run on up to `workers`
    processes (None: every available CPU; see `parallel_map`); the CSV and
    the returned rows do not depend on it.
    """
    worker_count(workers, 0)    # refuse workers < 1 before touching the file
    try:
        cfgs = [_apply_sweep(cfg, spec.sweep_var, value)
                for value in spec.sweep_values]
        if "meta-sac" in spec.schemes:
            for point in cfgs:
                require_meta_trainable(point)
    except ValueError as e:
        raise SweepRefused(str(e)) from e
    base_hash = cfg.config_hash()
    try:
        saved = _saved_rows(spec.out_path, base_hash, spec)
        new_file = not os.path.exists(spec.out_path)
        out = open(spec.out_path, "a", newline="")
    except OSError as e:
        raise ResultFileError(f"{spec.out_path} cannot be opened as a "
                              f"result file: {e.strerror or e}") from e
    plan, todo = [], []
    for i, value in enumerate(spec.sweep_values):
        for seed in range(spec.seeds):
            for scheme in spec.schemes:
                row_key = _row_key(scheme, spec.sweep_var, value, seed)
                plan.append((row_key, i, seed, scheme))
                if row_key not in saved:
                    todo.append((i, seed, scheme))
    with out:
        writer = csv.writer(out)
        if new_file:
            budgets = " ".join(f"{b}={getattr(spec, b)}" for b in BUDGETS)
            out.write(f"# config_hash={base_hash} scenario={spec.scenario} "
                      f"{budgets}\n")
            writer.writerow(_FIELDS)
        out.flush()     # forked workers must not inherit buffered bytes
        meta_at = sorted({i for i, _, scheme in todo
                          if scheme == "meta-sac"})

        def train_meta(i):
            point = derive_seed(base_hash, spec.sweep_var,
                                spec.sweep_values[i])
            return meta_train_for(cfgs[i], derive_seed(point, "meta-train"),
                                  derive_seed(point, "meta-tasks"),
                                  spec.meta_iterations, workers)[0]

        metas = dict(zip(meta_at, parallel_map(train_meta, meta_at, workers)))
        tasks = seed_tasks(cfgs, spec, base_hash)
        results = parallel_map(
            lambda unit: run_scheme(*unit),
            [(scheme, cfgs[i], first_users(tasks[seed], cfgs[i].n_users),
              seed, spec, metas.get(i) if scheme == "meta-sac" else None)
             for i, seed, scheme in todo],
            workers)
        rows = []
        for row_key, i, seed, scheme in plan:
            row = saved.get(row_key)
            if row is None:
                row = ResultRow(scheme=scheme, sweep_var=spec.sweep_var,
                                sweep_value=float(spec.sweep_values[i]),
                                seed=seed, **next(results))
                writer.writerow([getattr(row, k) for k in _FIELDS])
                saved[row_key] = row
            rows.append(row)
    return rows
