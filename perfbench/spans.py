"""Span tracing installed from outside the program.

Inside `Tracer.recording()` each traced function is replaced at the place
where it is looked up: modules import names directly (`from .channel import
channel_matrix`), so a module function is wrapped in every module that calls
it, and a method is wrapped on its class. On leaving the block the original
objects are put back, so untraced rounds run the unmodified code.

Each span records its call count and self time (its duration minus the time
covered by spans it caused). Hot spans also keep every duration, for
percentiles. Spans are kept in memory and summarised at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time

import uavlc.baselines
import uavlc.env
import uavlc.harness
import uavlc.meta
import uavlc.metrics
import uavlc.nets
import uavlc.sac

# span name, object holding the name, attribute, keep durations
TRACE_POINTS = [
    # nets
    ("nets.Mlp.forward", uavlc.nets.Mlp, "forward", False),
    ("nets.Mlp.backward", uavlc.nets.Mlp, "backward", False),
    ("nets.Adam.step", uavlc.nets.Adam, "step", False),
    ("nets.soft_update", uavlc.sac, "soft_update", False),
    # sac
    ("sac.SacAgent.update", uavlc.sac.SacAgent, "update", True),
    ("sac.SacAgent.critic_grads", uavlc.sac.SacAgent, "critic_grads", False),
    ("sac.SacAgent.actor_grads", uavlc.sac.SacAgent, "actor_grads", False),
    ("sac.SacAgent.act", uavlc.sac.SacAgent, "act", False),
    ("sac.SacAgent.clone", uavlc.sac.SacAgent, "clone", False),
    ("sac.ReplayBuffer.add", uavlc.sac.ReplayBuffer, "add", False),
    ("sac.ReplayBuffer.sample", uavlc.sac.ReplayBuffer, "sample", False),
    # meta
    ("meta.MetaSac.meta_train", uavlc.meta.MetaSac, "meta_train", False),
    ("meta.MetaSac.meta_adapt", uavlc.meta.MetaSac, "meta_adapt", False),
    ("meta.MetaSac.inner_adapt", uavlc.meta.MetaSac, "inner_adapt", False),
    ("meta.MetaSac.outer_update", uavlc.meta.MetaSac, "outer_update", False),
    # env
    ("env.step", uavlc.env.VlcUavEnv, "step", True),
    ("env.decode_action", uavlc.env.VlcUavEnv, "decode_action", False),
    ("env.reset", uavlc.env.VlcUavEnv, "reset", False),
    # channel
    ("channel.channel_matrix", uavlc.env, "channel_matrix", True),
    ("channel.perturb_csi", uavlc.env, "perturb_csi", False),
    # metrics
    ("metrics.check_p1_feasibility", uavlc.env, "check_p1_feasibility",
     True),
    ("metrics.per_user_rate", uavlc.metrics, "per_user_rate", False),
    ("metrics.per_user_rate", uavlc.baselines, "per_user_rate", False),
    ("metrics.order_users", uavlc.metrics, "order_users", False),
    ("metrics.order_users", uavlc.baselines, "order_users", False),
    # dimming, uav
    ("dimming.select_leds", uavlc.env, "select_leds", False),
    ("dimming.select_leds", uavlc.baselines, "select_leds", False),
    ("dimming.project_beamformer", uavlc.env, "project_beamformer", False),
    ("uav.propulsion_power", uavlc.env, "propulsion_power", False),
    ("uav.clamp_velocity", uavlc.env, "clamp_velocity", False),
    ("uav.step_kinematics", uavlc.env, "step_kinematics", False),
    # baselines
    ("baselines.GreedyPolicy.call", uavlc.baselines.GreedyPolicy, "__call__",
     True),
    ("baselines.cascade_beamformer", uavlc.baselines, "cascade_beamformer",
     False),
    ("baselines.noma_cascade_amplitudes", uavlc.baselines,
     "noma_cascade_amplitudes", False),
    ("baselines.RandomPolicy.call", uavlc.baselines.RandomPolicy, "__call__",
     False),
    # harness
    ("harness.run_experiment", uavlc.harness, "run_experiment", False),
    ("harness.run_scheme", uavlc.harness, "run_scheme", False),
    ("harness.evaluate", uavlc.harness, "evaluate", False),
]

# per_user_rate calls made by the greedy bisection, counted apart from the
# ones the feasibility report makes
BASELINE_RATE_SITE = (uavlc.baselines, "per_user_rate")

BY_CONSTRUCTION = ("C3", "C8", "C9")
BY_CLAMP = ("C6", "C7")


class Tracer:
    def __init__(self):
        self._originals = []
        self._stack = []
        self.reset()

    def reset(self):
        """Drop the spans recorded so far (one round's worth at a time)."""
        self.calls = {}
        self.self_s = {}
        self.durations = {}
        self.top_level_s = 0.0
        self.baseline_rate_calls = 0
        self.rows = 0
        self.feasible_rows = 0
        self.episodes = 0
        self.bad_episodes = 0
        self._episode_bad = False

    # -- installation --

    @contextlib.contextmanager
    def recording(self):
        """Trace the calls made inside the block, from a fresh start."""
        self.reset()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "durations": dict(self.durations),
                "top_level_s": self.top_level_s,
                "baseline_rate_calls": self.baseline_rate_calls,
                "rows": self.rows, "feasible_rows": self.feasible_rows,
                "episodes": self.episodes, "bad_episodes": self.bad_episodes}

    def _install(self):
        for name, owner, attr, hot in TRACE_POINTS:
            original = vars(owner)[attr]
            after = {"env.step": self._after_step,
                     "env.reset": self._after_reset}.get(name)
            count_site = (owner, attr) == BASELINE_RATE_SITE
            setattr(owner, attr,
                    self._wrap(name, original, hot, after, count_site))
            self._originals.append((owner, attr, original))

    def _uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []
        self._close_episode()

    def _wrap(self, name, fn, hot, after, count_site):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
                if hot:
                    self.durations.setdefault(name, []).append(dur)
                if count_site:
                    self.baseline_rate_calls += 1
                if stack:
                    stack[-1] += dur
                else:
                    self.top_level_s += dur
            if after is not None:
                after(args[0])
            return result

        return span

    # -- row checks at the env.step boundary --

    def _after_reset(self, env):
        self._close_episode()
        self.episodes += 1

    def _after_step(self, env):
        row = env.trace.rows[-1]
        self.rows += 1
        self.feasible_rows += row["feasible"]
        if row_problems(row, env.cfg.clamp_velocity):
            self._episode_bad = True

    def _close_episode(self):
        if self._episode_bad:
            self.bad_episodes += 1
        self._episode_bad = False


def row_problems(row: dict, clamp_velocity: bool) -> list[str]:
    """Ways a trace row breaks what holds by construction."""
    problems = [c for c in BY_CONSTRUCTION if not row[c]]
    if clamp_velocity:
        problems += [c for c in BY_CLAMP if not row[c]]
    for key in ("reward", "p_total"):
        if not math.isfinite(row[key]):
            problems.append(f"non-finite {key}")
    return problems
