"""Experiment orchestration: scheme evaluation, sweeps and CSV emission.

Every result row is reproducible bit-for-bit from (config hash, scheme,
sweep variable, sweep value, seed): all randomness is derived from that
key. Sweeps over the user count draw nested user supersets from a
value-independent seed, so sweep points share common random numbers.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .baselines import GreedyPolicy, RandomPolicy
from .config import SystemConfig
from .env import Task, VlcUavEnv, sample_task
from .meta import MetaSac
from .sac import SacAgent, train_sac

SWEEP_VARS = {"K": "n_users", "P_max": "p_max", "R_min": "r_min",
              "N": "n_leds"}
SCHEMES = ("meta-sac", "sac", "greedy", "random")


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
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if not self.schemes:
            raise ValueError("scheme list must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")


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
        return (self.scheme, self.sweep_var, repr(self.sweep_value),
                self.seed)


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def evaluate(env: VlcUavEnv, policy, episodes: int, seed: int) -> dict:
    """Deterministic multi-episode evaluation of a raw-action policy."""
    p_tot, sum_rate, ee, feas = [], [], [], []
    for ep in range(episodes):
        obs = env.reset(seed=derive_seed("eval", seed, ep))
        while not env.done:
            obs = env.step(policy(obs)).next_obs
        trace = env.trace
        p_tot.append(trace.mean("p_total"))
        sum_rate.append(trace.mean("sum_rate"))
        ee.append(float(np.mean([r["sum_rate"] / r["p_total"]
                                 for r in trace.rows])))
        feas.append(trace.feasibility_fraction())
    return {"mean_p_tot": float(np.mean(p_tot)),
            "mean_sum_rate": float(np.mean(sum_rate)),
            "mean_ee": float(np.mean(ee)),
            "feasibility_fraction": float(np.mean(feas))}


def make_agent_policy(agent: SacAgent, deterministic: bool = True):
    return lambda obs: agent.act(obs, deterministic=deterministic)


def paired_task(cfg: SystemConfig, spec: ExperimentSpec, base_hash: str,
                seed: int) -> Task:
    """Evaluation task shared across sweep values and schemes for a seed.

    For user-count sweeps the task's users are the first K of a superset
    drawn for the largest swept K, so rows at different K pair exactly.
    """
    task_seed = derive_seed(base_hash, spec.sweep_var, "task", seed)
    if spec.sweep_var == "K":
        k_max = int(max(spec.sweep_values))
        super_cfg = cfg.replace(n_users=k_max)
        rng = np.random.default_rng(task_seed)
        t = sample_task(super_cfg, rng)
        return Task(user_positions=t.user_positions[:cfg.n_users],
                    q_init=t.q_init, seed=t.seed)
    rng = np.random.default_rng(task_seed)
    return sample_task(cfg, rng)


def _apply_sweep(cfg: SystemConfig, var: str, value) -> SystemConfig:
    attr = SWEEP_VARS[var]
    if attr in ("n_users", "n_leds"):
        value = int(value)
    return cfg.replace(**{attr: value})


def run_scheme(scheme: str, cfg: SystemConfig, task: Task, seed: int,
               spec: ExperimentSpec,
               meta: MetaSac | None = None) -> dict:
    env = VlcUavEnv(cfg, task)
    if scheme == "random":
        policy = RandomPolicy(env, seed=derive_seed("random", seed))
        return evaluate(env, policy, spec.eval_episodes, seed)
    if scheme == "greedy":
        return evaluate(env, GreedyPolicy(env), spec.eval_episodes, seed)
    if scheme == "sac":
        agent, _, _ = train_sac(env, cfg, seed=derive_seed("sac", seed),
                                episodes=spec.train_episodes)
        return evaluate(env, make_agent_policy(agent), spec.eval_episodes,
                        seed)
    if scheme == "meta-sac":
        if meta is None:
            raise ValueError("meta-sac requires a meta-trained state")
        agent = meta.meta_adapt(task, spec.adapt_episodes,
                                seed=derive_seed("adapt", seed))
        return evaluate(env, make_agent_policy(agent), spec.eval_episodes,
                        seed)
    raise ValueError(f"unknown scheme {scheme!r}")


def meta_train_for(cfg: SystemConfig, spec: ExperimentSpec,
                   base_hash: str) -> MetaSac:
    """Meta-train once per sweep point on tasks disjoint from eval tasks."""
    probe = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    meta = MetaSac(cfg, probe.obs_dim, probe.action_dim,
                   seed=derive_seed(base_hash, "meta-train"))
    task_rng = np.random.default_rng(derive_seed(base_hash, "meta-tasks"))
    meta.meta_train(lambda: sample_task(cfg, task_rng),
                    spec.meta_iterations)
    return meta


_FIELDS = ["scheme", "sweep_var", "sweep_value", "seed", "mean_p_tot",
           "mean_sum_rate", "mean_ee", "feasibility_fraction"]


def _existing_keys(path: str, config_hash: str) -> set:
    """Row keys already in the CSV; refuses a file of another config."""
    keys = set()
    if not os.path.exists(path):
        return keys
    with open(path) as f:
        saved = re.match(r"# config_hash=(\S+)", f.readline())
        lines = [ln for ln in f if not ln.startswith("#")]
    if saved is None or saved.group(1) != config_hash:
        found = saved.group(1) if saved else "none"
        raise ValueError(f"{path} holds rows of config hash {found}, not "
                         f"{config_hash}; write this sweep to another file")
    for row in csv.DictReader(lines):
        keys.add((row["scheme"], row["sweep_var"],
                  repr(float(row["sweep_value"])), int(row["seed"])))
    return keys


def run_experiment(spec: ExperimentSpec,
                   cfg: SystemConfig) -> list[ResultRow]:
    """Run the sweep and append rows to the CSV (idempotent per row key)."""
    base_hash = cfg.config_hash()
    try:
        existing = _existing_keys(spec.out_path, base_hash)
        new_file = not os.path.exists(spec.out_path)
        out = open(spec.out_path, "a", newline="")
    except OSError as e:
        raise OSError(f"cannot open result file {spec.out_path}: {e}") from e
    rows = []
    with out:
        writer = csv.writer(out)
        if new_file:
            out.write(f"# config_hash={base_hash} scenario={spec.scenario}\n")
            writer.writerow(_FIELDS)
        for value in spec.sweep_values:
            cfg_v = _apply_sweep(cfg, spec.sweep_var, value)
            meta = None
            if "meta-sac" in spec.schemes:
                meta = meta_train_for(
                    cfg_v, spec, derive_seed(base_hash, spec.sweep_var,
                                             value))
            for seed in range(spec.seeds):
                task = paired_task(cfg_v, spec, base_hash, seed)
                for scheme in spec.schemes:
                    row = ResultRow(scheme=scheme, sweep_var=spec.sweep_var,
                                    sweep_value=float(value), seed=seed,
                                    **run_scheme(scheme, cfg_v, task, seed,
                                                 spec, meta))
                    rows.append(row)
                    if row.key() not in existing:
                        writer.writerow([row.scheme, row.sweep_var,
                                         row.sweep_value, row.seed,
                                         row.mean_p_tot, row.mean_sum_rate,
                                         row.mean_ee,
                                         row.feasibility_fraction])
                        existing.add(row.key())
    return rows
