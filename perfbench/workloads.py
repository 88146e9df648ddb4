"""The benchmark workloads, their configs and their output checks.

Each workload is a closed loop with one caller: a round builds its inputs
(`setup`), then runs the library's entry points one after another (`run`).
Every round of a run repeats the same seed-derived inputs, so every round
must give the same behaviour fingerprint.

Both configs are copies of the acceptance gate's feasible regimes, written
out field by field so that a later change of the library's defaults does not
change the workload. The default `SystemConfig` is infeasible in every slot
(hover power 1438 W against p_max 20 W): a learner trained on it sees only
the constant penalty, so its timings would not represent real runs.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import uavlc.harness as harness
from uavlc.config import SystemConfig
from uavlc.env import VlcUavEnv, sample_task
from uavlc.meta import MetaSac

from spans import row_problems

BASE = dict(
    half_power_semiangle_deg=60.0, fov_semiangle_deg=60.0, pd_area_m2=1e-4,
    refractive_index=1.5, noise_var=1e-20, csi_radius=1e-8,
    n_leds=10, dimming_level=1.0, i_low=0.0, i_high=0.010,
    amp_efficiency=1.2, conversion_factor=1.0, circuit_power=1.0,
    r_min=2.0, p_max=20.0,
    slot_duration=1.0, n_slots=20, v_max=10.0, a_max=6.0,
    q_min=(0.0, 0.0, 10.0), q_max=(150.0, 150.0, 100.0),
    return_tolerance=0.5,
    profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
    rotor_disk_area=0.79, blade_angular_velocity=400.0, rotor_radius=0.05,
    correction_factor=1.0, uav_weight=100.0, induced_hover_velocity=7.2,
    fuselage_drag_ratio=0.3,
    n_users=5, reward_mode="penalty", penalty=None, observe_pose=True,
    clamp_velocity=True,
    gamma=0.99, entropy_weight=0.2, polyak=0.005, batch_size=64,
    lr_actor=3e-4, lr_critic1=3e-4, lr_critic2=3e-4,
    adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, hidden_sizes=(64, 64),
    buffer_capacity=100000, reward_scale=1e-3, warmup_steps=200,
    target_actor_bootstrap=False,
    inner_steps=5, support_fraction=0.8, meta_task_count=4,
    episodes_per_task=1, lr_inner=1e-3, adapt_episodes=20,
)

# gate power regime: high-altitude corridor, cheap rate floor, p_max just
# under hover power, so the learner must find an efficient flight speed
POWER_REGIME = {**BASE,
                "q_max": (100.0, 100.0, 100.0), "q_min": (0.0, 0.0, 60.0),
                "r_min": 0.01, "p_max": 1300.0, "noise_var": 1e-22,
                "csi_radius": 1e-10, "entropy_weight": 0.01,
                "episodes_per_task": 3}

# gate K regime: small arena, featherweight airframe, transmit-side power
K_REGIME = {**BASE,
            "i_high": 1.0, "r_min": 0.5, "noise_var": 1e-16,
            "csi_radius": 1e-12, "circuit_power": 0.1,
            "conversion_factor": 0.01, "p_max": 2000.0,
            "q_max": (40.0, 40.0, 30.0), "q_min": (0.0, 0.0, 20.0),
            "uav_weight": 1e-3, "rotor_radius": 0.01,
            "blade_angular_velocity": 1.0, "rotor_disk_area": 1e-4,
            "induced_hover_velocity": 0.5, "fuselage_drag_ratio": 1e-6}


def make_config(values: dict) -> tuple[SystemConfig, list[str]]:
    """The config, and the listed fields this library no longer has."""
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    dropped = sorted(set(values) - known)
    return SystemConfig(**{k: v for k, v in values.items()
                           if k in known}), dropped


@dataclass(frozen=True)
class Size:
    tasks: int = 2              # held-out tasks (meta-train)
    meta_iterations: int = 6
    adapt_episodes: int = 10    # meta_adapt episodes per held-out task
    # host speed drifts over seconds, so eval_s must cover a good share of
    # each round (about a quarter) to sample that drift as wall_s does
    eval_episodes: int = 60     # evaluate episodes per trained agent
    # greedy work per slot depends on the user layout, so the sweep spreads
    # its episodes over many layouts rather than repeating one
    sweep_seeds: int = 6
    sweep_k: tuple = (1, 2, 3, 4, 5)
    sweep_eval_episodes: int = 1


SIZES = {
    "full": Size(),
    "tiny": Size(tasks=1, meta_iterations=4,
                 adapt_episodes=4, eval_episodes=1, sweep_seeds=1,
                 sweep_k=(1, 2), sweep_eval_episodes=1),
}


@dataclass
class Round:
    """What one round measured and checked."""
    times: dict = field(default_factory=lambda: {
        "train_s": 0.0, "adapt_s": 0.0, "eval_s": 0.0, "wall_s": 0.0})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    p_tot: list = field(default_factory=list)     # per evaluated episode/row
    feasible: list = field(default_factory=list)  # per evaluated slot/row
    csv_bytes: int = 0
    hashes: dict = field(default_factory=dict)

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def timed(self, key: str, what: str, fn, *args, **kwargs):
        """Run one library call; an exception is a failed operation."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.record(what, [traceback.format_exc(limit=3).strip()])
            return None
        finally:
            self.times[key] += time.perf_counter() - t0

    def digest(self, kind: str, data: bytes):
        """Feed one output into the behaviour fingerprint."""
        self.hashes.setdefault(kind, hashlib.sha256()).update(data)

    def fingerprint(self) -> dict:
        return {k: h.hexdigest() for k, h in self.hashes.items()}


def _agent_problems(agent) -> list[str]:
    return [f"non-finite {name} parameter"
            for name, net in (("actor", agent.actor), ("q1", agent.q1),
                              ("q2", agent.q2))
            if not all(np.all(np.isfinite(p)) for p in net.params)]


def _hash_agent(r: Round, agent):
    for net in (agent.actor, agent.q1, agent.q2):
        for p in net.params:
            r.digest("params", np.ascontiguousarray(p).tobytes())


def _evaluate(r: Round, env, agent, episodes: int, seed: int, what: str):
    """harness.evaluate, keeping every evaluated episode's trace."""
    if agent is None:       # no trained agent: its episodes count as failed
        for ep in range(episodes):
            r.record(f"{what} episode {ep}", ["no trained agent"])
        return
    policy = harness.make_agent_policy(agent)
    traces = []

    def capture(obs):
        if not traces or traces[-1] is not env.trace:
            traces.append(env.trace)
        return policy(obs)

    t0 = time.perf_counter()
    try:
        harness.evaluate(env, capture, episodes, seed)
    except Exception:
        traces = []
        for ep in range(episodes):
            r.record(f"{what} episode {ep}",
                     [traceback.format_exc(limit=3).strip()])
    finally:
        r.times["eval_s"] += time.perf_counter() - t0
    for ep, trace in enumerate(traces):
        problems = sorted({p for row in trace.rows
                           for p in row_problems(row, env.cfg.clamp_velocity)})
        r.record(f"{what} episode {ep}", problems)
        r.p_tot.append(trace.mean("p_total"))
        r.feasible.extend(row["feasible"] for row in trace.rows)
        r.digest("trace_rows", json.dumps(trace.rows, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# meta-train
# ---------------------------------------------------------------------------

def setup_meta_train(seed: int, size: Size, work_dir: str) -> dict:
    cfg, dropped = make_config(POWER_REGIME)
    rng = np.random.default_rng([seed, 2])
    held_out = [sample_task(cfg, rng) for _ in range(size.tasks)]
    envs = [VlcUavEnv(cfg, t) for t in held_out]
    meta_seed, task_seed, *adapt_seeds = (
        int(s) for s in rng.integers(0, 2**31, 2 + size.tasks))
    meta = MetaSac(cfg, envs[0].obs_dim, envs[0].action_dim, seed=meta_seed)
    task_rng = np.random.default_rng(task_seed)
    return dict(cfg=cfg, dropped=dropped, envs=envs, meta=meta,
                sampler=lambda: sample_task(cfg, task_rng),
                adapt_seeds=adapt_seeds)


def run_meta_train(st: dict, size: Size) -> Round:
    r = Round()
    meta = st["meta"]
    history = r.timed("train_s", "meta_train", meta.meta_train,
                      st["sampler"], size.meta_iterations)
    if history is not None:
        problems = _agent_problems(meta.agent)
        if not all(math.isfinite(h[k]) for h in history
                   for k in ("actor", "critic1", "critic2")):
            problems.append("non-finite outer loss")
        r.record("meta_train", problems)
        _hash_agent(r, meta.agent)
    for i, (env, seed) in enumerate(zip(st["envs"], st["adapt_seeds"])):
        what = f"task {i}"
        agent = r.timed("adapt_s", f"{what} meta_adapt", meta.meta_adapt,
                        env.task, size.adapt_episodes, seed=seed)
        if agent is not None:
            r.record(f"{what} meta_adapt", _agent_problems(agent))
            _hash_agent(r, agent)
        _evaluate(r, env, agent, size.eval_episodes, seed, f"{what} eval")
    return r


# ---------------------------------------------------------------------------
# greedy-sweep
# ---------------------------------------------------------------------------

SWEEP_FIELDS = ("mean_p_tot", "mean_sum_rate", "mean_ee",
                "feasibility_fraction")


def setup_greedy_sweep(seed: int, size: Size, work_dir: str) -> dict:
    # run_experiment draws every task from the config hash. Greedy and
    # random never read warmup_steps, so the seed goes there: the hash, and
    # with it the tasks, follow the seed while the physics stays the gate's.
    cfg, dropped = make_config({**K_REGIME, "warmup_steps": seed})
    out_path = os.path.join(work_dir, "sweep.csv")
    if os.path.exists(out_path):
        os.remove(out_path)
    spec = harness.ExperimentSpec(
        scenario="perfbench-k", sweep_var="K",
        sweep_values=list(size.sweep_k), seeds=size.sweep_seeds,
        schemes=["greedy", "random"], out_path=out_path,
        eval_episodes=size.sweep_eval_episodes)
    return dict(cfg=cfg, dropped=dropped, spec=spec)


def _read_sweep_csv(path: str) -> tuple[str, list[dict]]:
    with open(path, newline="") as f:
        header = f.readline()
        return header, list(csv.DictReader(f))


def _same_row(line: dict, row) -> bool:
    return (line["scheme"] == row.scheme
            and line["sweep_var"] == row.sweep_var
            and float(line["sweep_value"]) == row.sweep_value
            and int(line["seed"]) == row.seed
            and all(float(line[k]) == getattr(row, k) for k in SWEEP_FIELDS))


def run_greedy_sweep(st: dict, size: Size) -> Round:
    r = Round()
    spec, cfg = st["spec"], st["cfg"]
    expected = len(spec.sweep_values) * spec.seeds * len(spec.schemes)
    rows = r.timed("eval_s", "run_experiment", harness.run_experiment, spec,
                   cfg)
    if rows is None:    # one failure recorded: count the other rows too
        for i in range(expected - 1):
            r.record(f"sweep row {i}", ["run_experiment raised"])
        return r
    with open(spec.out_path, "rb") as f:
        data = f.read()
    r.csv_bytes = len(data)
    r.digest("csv", data)
    header, lines = _read_sweep_csv(spec.out_path)
    file_problems = []
    if f"config_hash={cfg.config_hash()}" not in header:
        file_problems.append("CSV header lacks the config hash")
    if not len(rows) == len(lines) == expected:
        file_problems.append(f"{len(rows)} rows returned, {len(lines)} in "
                             f"the CSV, {expected} expected")
    for i, row in enumerate(rows):
        problems = list(file_problems)
        if i < len(lines) and not _same_row(lines[i], row):
            problems.append("CSV row differs from the returned row")
        if not all(math.isfinite(getattr(row, k)) for k in SWEEP_FIELDS):
            problems.append("non-finite result")
        if not 0.0 <= row.feasibility_fraction <= 1.0:
            problems.append("feasibility fraction outside [0, 1]")
        r.record(f"sweep row {row.key()}", problems)
        r.p_tot.append(row.mean_p_tot)
        r.feasible.append(row.feasibility_fraction)
    return r


WORKLOADS = {
    "meta-train": (setup_meta_train, run_meta_train),
    "greedy-sweep": (setup_greedy_sweep, run_greedy_sweep),
}


def setup(name: str, seed: int, size: Size, work_dir: str) -> dict:
    """Build one round's inputs; `work_dir` holds files the round writes."""
    make, _ = WORKLOADS[name]
    return make(seed, size, work_dir)


def run_round(name: str, state: dict, size: Size) -> Round:
    _, run = WORKLOADS[name]
    t0 = time.perf_counter()
    r = run(state, size)
    r.times["wall_s"] = time.perf_counter() - t0
    return r
