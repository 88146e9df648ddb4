"""Command-line entry points.

Subcommands: simulate, train, meta-train, adapt, eval, sweep, check.
CSV files are the output contract; plotting is out of scope.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines import GreedyPolicy, RandomPolicy
from .config import load_config
from .env import VlcUavEnv, rollout, sample_task
from .harness import (BUDGETS, SCHEMES, SWEEP_VARS, ExperimentSpec,
                      SweepRefused, derive_seed, evaluate, make_agent_policy,
                      meta_train_for, run_experiment)
from .meta import MetaSac, require_meta_trainable
from .procs import worker_count
from .sac import SacAgent, train_sac


POLICIES = ("greedy", "random", "agent")     # --scheme of simulate and eval


class UsageError(Exception):
    """Refused user input: `main` reports it in one line, exit status 2."""


def _common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="YAML config path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-literal", action="store_true",
                   help="reward 0 on infeasible slots, channels-only state")


def _load_cfg(args):
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as err:
        raise UsageError(err) from err
    if args.paper_literal:
        cfg = cfg.replace(reward_mode="paper", observe_pose=False)
    return cfg


def _workers(args):
    """`--workers`, refused below 1 before any work starts."""
    try:
        worker_count(args.workers, 0)
    except ValueError as err:
        raise UsageError(err) from err
    return args.workers


def _at_least_one(args, name):
    """`--<name>`, refused below 1: no episode would average nothing, and
    no meta-iteration would save an untrained checkpoint."""
    value = getattr(args, name)
    if value < 1:
        raise UsageError(f"--{name} must be at least 1, got {value}")
    return value


def _task_for(cfg, seed):
    return sample_task(cfg, np.random.default_rng(derive_seed("task", seed)))


def _policy_for(args, env):
    """The policy `--scheme` names; `agent` loads `--checkpoint`."""
    if args.scheme == "greedy":
        return GreedyPolicy(env)
    if args.scheme == "random":
        return RandomPolicy(env, seed=args.seed)
    try:
        agent = SacAgent.load(args.checkpoint, env.cfg, env.obs_dim,
                              env.action_dim)
    except (OSError, ValueError) as err:
        raise UsageError(err) from err
    return make_agent_policy(agent)


def cmd_simulate(args):
    cfg = _load_cfg(args)
    env = VlcUavEnv(cfg, _task_for(cfg, args.seed))
    rollout(env, _policy_for(args, env), args.seed)
    env.trace.write_csv(args.out)
    print(f"episode trace ({len(env.trace.rows)} slots) -> {args.out}")
    print(f"mean P_Tot: {env.trace.mean('p_total'):.3f} W, "
          f"feasible fraction: {env.trace.mean('feasible'):.2f}")


def cmd_train(args):
    episodes = _at_least_one(args, "episodes")
    cfg = _load_cfg(args)
    env = VlcUavEnv(cfg, _task_for(cfg, args.seed))
    agent, _, returns = train_sac(env, cfg, seed=args.seed,
                                  episodes=episodes)
    agent.save(args.out)
    print(f"trained {args.episodes} episodes; last-5 mean return "
          f"{np.mean(returns[-5:]):.1f}; checkpoint -> {args.out}")


def cmd_meta_train(args):
    iterations = _at_least_one(args, "iterations")
    cfg = _load_cfg(args)
    try:
        require_meta_trainable(cfg)
    except ValueError as err:
        raise UsageError(err) from err
    meta, history = meta_train_for(cfg, args.seed,
                                   derive_seed("meta-tasks", args.seed),
                                   iterations, _workers(args))
    meta.save(args.out)
    print(f"meta-trained {iterations} iterations on "
          f"{cfg.meta_task_count} tasks; checkpoint -> {args.out}")
    print(f"final query losses: {history[-1]}")


def cmd_adapt(args):
    episodes = _at_least_one(args, "episodes")
    cfg = _load_cfg(args)
    try:
        meta = MetaSac.load(args.checkpoint, cfg)
    except (OSError, ValueError) as err:
        raise UsageError(err) from err
    task = _task_for(cfg, args.seed)
    agent = meta.meta_adapt(task, episodes, seed=args.seed)
    agent.save(args.out)
    print(f"adapted {episodes} episodes on task seed {task.seed}; "
          f"checkpoint -> {args.out}")


def cmd_eval(args):
    episodes = _at_least_one(args, "episodes")
    cfg = _load_cfg(args)
    env = VlcUavEnv(cfg, _task_for(cfg, args.seed))
    stats = evaluate(env, _policy_for(args, env), episodes, args.seed)
    for k, v in stats.items():
        print(f"{k}: {v:.6g}")


def cmd_sweep(args):
    cfg = _load_cfg(args)
    try:
        spec = ExperimentSpec(
            scenario=args.scenario, sweep_var=args.var,
            sweep_values=[float(v) for v in args.values],
            seeds=args.seeds, schemes=args.scheme, out_path=args.out,
            **{budget: getattr(args, budget) for budget in BUDGETS})
    except ValueError as err:
        raise UsageError(err) from err
    try:
        rows = run_experiment(spec, cfg, workers=_workers(args))
    except SweepRefused as err:
        raise UsageError(err) from err
    print(f"{len(rows)} rows -> {spec.out_path}")


def cmd_check(args):
    """Small invariant suite runnable without pytest."""
    import math

    from .channel import lambertian_order, los_channel_gain
    from .dimming import (DimmingConfig, active_led_count, dc_bias_for,
                          dimming_level_of)
    from .uav import hover_power, propulsion_power

    cfg = _load_cfg(args)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    check("lambertian order at 60 deg is 1",
          abs(lambertian_order(math.radians(60)) - 1.0) < 1e-12)
    h = los_channel_gain(np.array([0, 0, 10.0]), np.zeros(3), cfg.optics())
    check("nadir gain positive", h > 0)
    dim = DimmingConfig(eta=0.55, i_low=cfg.i_low, i_high=cfg.i_high,
                        n_leds=cfg.n_leds)
    n_a = active_led_count(dim.eta, dim.n_leds)
    eta_back = dimming_level_of(n_a, dc_bias_for(dim, n_a), dim)
    check("dimming round trip", abs(eta_back - dim.eta) < 1e-12)
    rotor = cfg.rotor()
    hov = hover_power(rotor)
    check("propulsion(0) equals hover",
          abs(propulsion_power(np.zeros(3), rotor) - hov.total)
          < 1e-12 * hov.total)
    env = VlcUavEnv(cfg, _task_for(cfg, args.seed))
    env.reset(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    ok_c3 = ok_c9 = True
    for _ in range(200):
        act = env.decode_action(rng.uniform(-1, 1, env.action_dim))
        ok_c3 &= bool(np.all(np.abs(act.w).sum(axis=1)
                             <= env.bound * (1 + 1e-9)))
        ok_c9 &= act.selection.n_active == env.n_active
    check("decoded actions satisfy C3", ok_c3)
    check("decoded actions satisfy C9", ok_c9)
    floor = cfg.power_floor()
    check(f"P_Tot lower bound {floor:.1f} W within p_max {cfg.p_max:g} W",
          floor <= cfg.p_max * (1.0 + 1e-12))
    if failures:
        print(f"{failures} check(s) failed")
        sys.exit(1)
    print("all checks passed")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="uavlc",
        description="UAV LED-array VLC simulator and allocator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single-episode trace CSV")
    _common(p)
    p.add_argument("--scheme", default="greedy", choices=POLICIES)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="plain SAC on one task")
    _common(p)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("meta-train", help="meta-training phase")
    _common(p)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--workers", type=int, default=None,
                   help="processes to run each iteration's tasks on "
                        "(default: every available CPU); the checkpoint "
                        "does not depend on it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("adapt", help="meta-adaptation on a fresh task")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a scheme or checkpoint")
    _common(p)
    p.add_argument("--scheme", default="agent", choices=POLICIES)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--episodes", type=int, default=5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="experiment sweep to CSV")
    _common(p)
    p.add_argument("--scenario", default="sweep")
    p.add_argument("--var", required=True, choices=SWEEP_VARS)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--scheme", nargs="+", required=True, choices=SCHEMES)
    for budget in BUDGETS:
        p.add_argument("--" + budget.replace("_", "-"), type=int,
                       default=getattr(ExperimentSpec, budget))
    p.add_argument("--workers", type=int, default=None,
                   help="processes to run the sweep on (default: every "
                        "available CPU); the CSV does not depend on it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run the quick invariant suite")
    _common(p)
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    if getattr(args, "scheme", None) == "agent" and args.checkpoint is None:
        parser.error(f"{args.command} --scheme agent needs --checkpoint")
    try:
        args.func(args)
    except UsageError as err:
        parser.exit(2, f"{parser.prog} {args.command}: error: {err}\n")


if __name__ == "__main__":
    main()
