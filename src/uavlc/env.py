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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .channel import (ChannelState, OpticsParams, channel_matrix,
                      los_channel_gain, perturb_csi)
from .config import SystemConfig
from .dimming import (DimmingConfig, LedSelection, active_led_count,
                      beamforming_bound, dc_bias_for, project_beamformer,
                      select_leds)
from .metrics import QosConfig, check_p1_feasibility
from .uav import (FlightConfig, RotorcraftParams, UavState, clamp_velocity,
                  hover_power, propulsion_power, step_kinematics)


@dataclass
class Task:
    user_positions: np.ndarray   # K x 3
    q_init: np.ndarray           # 3
    seed: int

    def __post_init__(self):
        self.user_positions = np.asarray(self.user_positions, dtype=float)
        self.q_init = np.asarray(self.q_init, dtype=float)


@dataclass
class AllocationAction:
    w: np.ndarray                # N x K beamformer [A]
    selection: LedSelection
    i_dc: float                  # [A]
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

    def append(self, row: dict):
        self.rows.append(row)

    def mean(self, key: str) -> float:
        return float(np.mean([r[key] for r in self.rows]))

    def feasibility_fraction(self) -> float:
        return float(np.mean([r["feasible"] for r in self.rows]))

    def write_csv(self, path: str):
        if not self.rows:
            raise ValueError("empty trace")
        fields = list(self.rows[0].keys())
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=fields)
            writer.writeheader()
            writer.writerows(self.rows)


def sample_task(cfg: SystemConfig, rng: np.random.Generator) -> Task:
    """Users uniform over the ground footprint; UAV start inside the box."""
    if cfg.n_users < 1:
        raise ValueError("need at least one user")
    seed = int(rng.integers(0, 2**63 - 1))
    trng = np.random.default_rng(seed)
    q_min = np.asarray(cfg.q_min)
    q_max = np.asarray(cfg.q_max)
    users = np.zeros((cfg.n_users, 3))
    users[:, 0] = trng.uniform(q_min[0], q_max[0], cfg.n_users)
    users[:, 1] = trng.uniform(q_min[1], q_max[1], cfg.n_users)
    # small interior margin keeps the start clear of the strict box bounds
    margin = 0.02 * (q_max - q_min)
    q_init = trng.uniform(q_min + margin, q_max - margin)
    return Task(user_positions=users, q_init=q_init, seed=seed)


class VlcUavEnv:
    """Single-UAV VLC environment; one instance per thread."""

    def __init__(self, cfg: SystemConfig, task: Task):
        self.cfg = cfg
        self.task = task
        self.optics = OpticsParams(
            half_power_semiangle=cfg.half_power_semiangle,
            fov_semiangle=cfg.fov_semiangle,
            pd_area=cfg.pd_area_m2,
            refractive_index=cfg.refractive_index)
        self.dim_cfg = DimmingConfig(eta=cfg.dimming_level, i_low=cfg.i_low,
                                     i_high=cfg.i_high, n_leds=cfg.n_leds)
        self.flight_cfg = FlightConfig(
            slot_duration=cfg.slot_duration, n_slots=cfg.n_slots,
            v_max=cfg.v_max, a_max=cfg.a_max,
            q_min=np.asarray(cfg.q_min), q_max=np.asarray(cfg.q_max),
            q_init=task.q_init, return_tolerance=cfg.return_tolerance)
        self.rotor = RotorcraftParams(
            profile_drag_coeff=cfg.profile_drag_coeff,
            air_density=cfg.air_density,
            rotor_solidity=cfg.rotor_solidity,
            rotor_disk_area=cfg.rotor_disk_area,
            blade_angular_velocity=cfg.blade_angular_velocity,
            rotor_radius=cfg.rotor_radius,
            correction_factor=cfg.correction_factor,
            uav_weight=cfg.uav_weight,
            induced_hover_velocity=cfg.induced_hover_velocity,
            fuselage_drag_ratio=cfg.fuselage_drag_ratio)
        self.qos = QosConfig(r_min=cfg.r_min, p_max=cfg.p_max)
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
        self._q_min = np.asarray(cfg.q_min)
        self._q_span = np.asarray(cfg.q_max) - self._q_min
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
        if not np.isfinite(raw).all():
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
        return AllocationAction(w=w, selection=selection, i_dc=self.i_dc,
                                velocity=velocity)

    def step(self, raw: np.ndarray) -> Transition:
        if self._done:
            raise RuntimeError("cannot step a finished episode")
        obs = self._obs
        action = self.decode_action(raw)
        p_prop = propulsion_power(action.velocity, self.rotor, self.hover)
        report = check_p1_feasibility(
            w=action.w, selection=action.selection, i_dc=action.i_dc,
            v_next=action.velocity, h_true=self._channels.true_gain,
            noise_var=self._channels.noise_var, uav_state=self._uav,
            flight_cfg=self.flight_cfg, dim_cfg=self.dim_cfg, qos=self.qos,
            p_propulsion=p_prop, amp_efficiency=self.cfg.amp_efficiency,
            conversion_factor=self.cfg.conversion_factor,
            circuit_power=self.cfg.circuit_power)
        power = report["power"]
        if report["feasible"]:
            reward = -power.total
        elif self.cfg.reward_mode == "paper":
            reward = 0.0
        else:
            reward = self.penalty
        self._record(report, action, reward)
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
        self._channels = ChannelState(
            true_gain=h, est_gain=h_hat, noise_var=self._noise,
            uncertainty_radius=self.cfg.csi_radius)
        chan = np.log1p(h_hat / self._h_ref).ravel()
        if self.cfg.observe_pose:
            uav = self._uav
            chan = np.concatenate([
                chan, (uav.position - self._q_min) / self._q_span,
                uav.velocity / self.cfg.v_max,
                [uav.slot / self.cfg.n_slots]])
        self._obs = chan

    def _record(self, report: dict, action: AllocationAction, reward: float):
        power = report["power"]
        rates = report["rates"]
        row = {
            "slot": self._uav.slot,
            "reward": reward,
            "p_transmit": power.transmit,
            "p_bias": power.bias,
            "p_circuit": power.circuit,
            "p_propulsion": power.propulsion,
            "p_total": power.total,
            "sum_rate": rates.sum_rate,
        }
        for k in range(self.cfg.n_users):
            row[f"rate_{k}"] = rates.rates[k]
        for c in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "RTS"):
            row[c] = int(report[c])
        row["feasible"] = int(report["feasible"])
        row["x"], row["y"], row["z"] = self._uav.position
        self.trace.append(row)

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
