"""MDP wrapper of the constrained power-minimization problem.

A task fixes user placements and the UAV start; an episode runs L slots.
Raw learner actions live in a [-1, 1] box and are decoded through the
dimming/beamforming projection pipeline, so the dynamic-range and binary
selection constraints hold by construction. Reward is -P_Tot on feasible
slots and a configurable penalty otherwise (0 in paper-literal mode).

A step builds one observation: the next observation it returns is kept and
is the observation the following step acts on. The kernels a step calls
make few numpy calls per slot and still give the results of their
per-user, per-element forms bit for bit; the `channel`, `uav` and
`metrics` docstrings say why.

Per env, the constructor works out the DC bias, the dynamic-range bound,
the noise vector, the observation's length and normalizers (the box's low
corner and sides as Python floats), and `OpticsParams` and `FlightConfig`
hold their own constants. A refresh writes the observation into one fresh
array: `np.log1p` of the scaled estimates into its contiguous head, then
the pose terms, each one IEEE subtraction or division of Python floats,
the operations numpy makes elementwise. The decoder's finiteness check
sums with `np.add.reduce`, the reduction `ndarray.sum` calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (ChannelState, channel_matrix, los_channel_gain,
                      perturb_csi)
from .config import SystemConfig
from .dimming import (LedSelection, active_led_count, beamforming_bound,
                      dc_bias_for, project_beamformer, select_leds)
from .metrics import check_p1_feasibility
from .uav import (UavState, clamp_velocity, hover_power, propulsion_power,
                  step_kinematics)


@dataclass
class Task:
    user_positions: np.ndarray   # K x 3
    q_init: np.ndarray           # 3
    seed: int

    def __post_init__(self):
        self.user_positions = np.asarray(self.user_positions, dtype=float)
        self.q_init = np.asarray(self.q_init, dtype=float)
        # a NaN position would reach the reward as a finite penalty
        for name in ("user_positions", "q_init"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"task {name} must be finite")


@dataclass
class AllocationAction:
    w: np.ndarray                # N x K beamformer [A]
    selection: LedSelection
    velocity: np.ndarray         # commanded slot velocity [m/s]


@dataclass
class Transition:
    obs: np.ndarray
    raw_action: np.ndarray
    reward: float
    next_obs: np.ndarray
    done: bool


@dataclass
class EpisodeTrace:
    rows: list = field(default_factory=list)

    def mean(self, key: str) -> float:
        return float(np.mean([r[key] for r in self.rows]))

    def write_csv(self, path: str):
        if not self.rows:
            raise ValueError("empty trace")
        fields = list(self.rows[0].keys())
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=fields)
            writer.writeheader()
            writer.writerows(self.rows)


def start_box(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the flight box less a 2% margin per side,
    which keeps a start or a hover point clear of the strict box bounds."""
    q_min, q_max = np.asarray(cfg.q_min), np.asarray(cfg.q_max)
    margin = 0.02 * (q_max - q_min)
    return q_min + margin, q_max - margin


def sample_task(cfg: SystemConfig, rng: np.random.Generator) -> Task:
    """Users uniform over the ground footprint; UAV start in `start_box`."""
    seed = int(rng.integers(0, 2**63 - 1))
    trng = np.random.default_rng(seed)
    users = np.zeros((cfg.n_users, 3))
    users[:, 0] = trng.uniform(cfg.q_min[0], cfg.q_max[0], cfg.n_users)
    users[:, 1] = trng.uniform(cfg.q_min[1], cfg.q_max[1], cfg.n_users)
    q_init = trng.uniform(*start_box(cfg))
    return Task(user_positions=users, q_init=q_init, seed=seed)


class VlcUavEnv:
    """Single-UAV VLC environment; one instance per thread."""

    def __init__(self, cfg: SystemConfig, task: Task):
        if len(task.user_positions) != cfg.n_users:  # cfg sizes obs, report
            raise ValueError(f"task has {len(task.user_positions)} users but "
                             f"the config's n_users is {cfg.n_users}")
        self.cfg = cfg
        self.task = task
        self.optics = cfg.optics()
        self.dim_cfg = cfg.dimming()
        self.flight_cfg = cfg.flight(task.q_init)
        self.rotor = cfg.rotor()
        self.hover = hover_power(self.rotor)
        self.penalty = (cfg.penalty if cfg.penalty is not None
                        else -(cfg.p_max + self.hover.total))
        self.n_active = active_led_count(cfg.dimming_level, cfg.n_leds)
        self.i_dc = dc_bias_for(self.dim_cfg, self.n_active)
        self.bound = beamforming_bound(self.i_dc, cfg.i_low, cfg.i_high)
        self._noise = np.full(cfg.n_users, cfg.noise_var)
        # observation normalizers: nadir gain from mid-altitude, the box
        z_ref = 0.5 * (cfg.q_min[2] + cfg.q_max[2])
        self._h_ref = los_channel_gain(
            np.array([0.0, 0.0, z_ref]), np.zeros(3), self.optics)
        # the box's low corner and sides as Python floats
        self._q_min, q_max = self.flight_cfg.box
        self._q_span = tuple(hi - lo for lo, hi in zip(self._q_min, q_max))
        self._obs_dim = self.obs_dim
        self._uav: UavState | None = None
        self._channels: ChannelState | None = None
        self._obs: np.ndarray | None = None
        self._rng: np.random.Generator | None = None
        self._done = True
        self.trace = EpisodeTrace()

    # -- dimensions --

    @property
    def obs_dim(self) -> int:
        base = self.cfg.n_leds * self.cfg.n_users
        return base + (7 if self.cfg.observe_pose else 0)

    @property
    def action_dim(self) -> int:
        return self.cfg.n_leds * self.cfg.n_users + self.cfg.n_leds + 3

    # -- core API --

    def reset(self, seed: int | None = None) -> np.ndarray:
        episode_seed = self.task.seed if seed is None else seed
        self._rng = np.random.default_rng([episode_seed, self.task.seed])
        self._uav = UavState(position=self.task.q_init.copy(),
                             velocity=np.zeros(3), slot=0)
        self._refresh_channels()
        self._done = False
        self.trace = EpisodeTrace()
        return self._obs

    def decode_action(self, raw: np.ndarray) -> AllocationAction:
        """Map a raw box action to a C3/C9-feasible allocation.

        Raises ValueError on a NaN or infinite entry: clipping would carry
        it into the beams and the report, and the slot would silently read
        as a plain infeasible one.
        """
        raw = np.asarray(raw, dtype=float)
        # a NaN or infinite entry makes the sum non-finite; a finite sum
        # that overflows falls through to the full check
        if (not math.isfinite(np.add.reduce(raw, axis=None))
                and not np.isfinite(raw).all()):
            raise ValueError(
                f"non-finite raw action at slot {self._uav.slot}")
        n, k = self.cfg.n_leds, self.cfg.n_users
        nk = n * k
        clipped = raw.clip(-1.0, 1.0)
        beam = clipped[:nk].reshape(n, k) * self.bound
        selection = select_leds(raw[nk:nk + n], self.n_active)
        w = project_beamformer(beam, self.bound, selection)
        v_raw = clipped[nk + n:] * self.cfg.v_max
        if self.cfg.clamp_velocity:
            velocity = clamp_velocity(self._uav, v_raw, self.flight_cfg)
        else:
            velocity = v_raw
        return AllocationAction(w=w, selection=selection, velocity=velocity)

    def step(self, raw: np.ndarray) -> Transition:
        if self._done:
            raise RuntimeError("cannot step a finished episode")
        obs = self._obs
        action = self.decode_action(raw)
        p_prop = propulsion_power(action.velocity, self.rotor, self.hover)
        report = check_p1_feasibility(self, action, p_prop)
        if report["feasible"]:
            reward = -report["p_total"]
        elif self.cfg.reward_mode == "paper":
            reward = 0.0
        else:
            reward = self.penalty
        x, y, z = self._uav.position.tolist()
        self.trace.rows.append({"slot": self._uav.slot, "reward": reward,
                                **report, "x": x, "y": y, "z": z})
        self._uav = step_kinematics(self._uav, action.velocity,
                                    self.flight_cfg)
        self._refresh_channels()
        self._done = self._uav.slot >= self.cfg.n_slots
        return Transition(obs=obs, raw_action=raw.copy(), reward=reward,
                          next_obs=self._obs, done=self._done)

    # -- internals --

    def _refresh_channels(self):
        """New channels for the UAV's position, and their observation."""
        h = channel_matrix(self._uav.position, self.task.user_positions,
                           self.optics, self.cfg.n_leds)
        h_hat = perturb_csi(h, self.cfg.csi_radius, self._rng)
        self._channels = ChannelState(true_gain=h, est_gain=h_hat,
                                      noise_var=self._noise)
        obs = np.empty(self._obs_dim)
        nk = h_hat.size
        np.log1p(h_hat.ravel() / self._h_ref, out=obs[:nk])
        if self.cfg.observe_pose:
            uav = self._uav
            (x, y, z), (u, v, w) = (uav.position.tolist(),
                                    uav.velocity.tolist())
            (x0, y0, z0), (sx, sy, sz) = self._q_min, self._q_span
            v_max = self.cfg.v_max
            obs[nk:] = ((x - x0) / sx, (y - y0) / sy, (z - z0) / sz,
                        u / v_max, v / v_max, w / v_max,
                        uav.slot / self.cfg.n_slots)
        self._obs = obs

    # read-only views for baselines and diagnostics

    @property
    def uav_state(self) -> UavState:
        return self._uav

    @property
    def channels(self) -> ChannelState:
        return self._channels

    @property
    def done(self) -> bool:
        return self._done


def rollout(env, policy, seed: int, on_step=None) -> float:
    """Run one episode of `env` from `reset(seed)`; its summed reward.

    `policy` maps an observation to a raw action. `on_step`, if given,
    receives each `Transition` right after its step, before the next
    action is chosen. Rewards are added in step order.
    """
    obs = env.reset(seed=seed)
    total = 0.0
    while not env.done:
        tr = env.step(policy(obs))
        if on_step is not None:
            on_step(tr)
        total += tr.reward
        obs = tr.next_obs
    return total
