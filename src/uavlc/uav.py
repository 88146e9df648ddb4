"""Discrete-time UAV kinematics, flight constraints and rotor power models.

Flight constraints are reported rather than enforced; the environment
decides whether to penalize or clamp. The parasite power term keeps the
rotor-solidity factor exactly as the source model prints it.

Vector lengths are `norm(x) = sqrt(x . x)` with the dot product taken by
BLAS `ddot`, the same call `np.linalg.norm` makes for one vector, so they
equal its results bit for bit at a fraction of its call cost (a Python sum
of squares does not: it differs in the last bit on some inputs).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass
class FlightConfig:
    slot_duration: float          # tau [s]
    n_slots: int                  # L
    v_max: float                  # [m/s]
    a_max: float                  # [m/s^2]
    q_min: np.ndarray             # [m]
    q_max: np.ndarray             # [m]
    q_init: np.ndarray            # q_U^I [m]
    return_tolerance: float = 0.5 # [m]

    def __post_init__(self):
        for name in ("q_min", "q_max", "q_init"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
        if not (self.slot_duration > 0 and self.v_max > 0 and self.a_max > 0):
            raise ValueError("slot_duration, v_max and a_max must be positive")
        if self.n_slots < 1:
            raise ValueError("need at least one slot")
        if not self.return_tolerance >= 0:
            raise ValueError(f"return_tolerance must be non-negative, "
                             f"got {self.return_tolerance}")
        if not np.all(self.q_min < self.q_max):
            raise ValueError("q_min must be component-wise below q_max")


@dataclass
class RotorcraftParams:
    profile_drag_coeff: float      # rho
    air_density: float             # zeta [kg/m^3]
    rotor_solidity: float
    rotor_disk_area: float         # [m^2]
    blade_angular_velocity: float  # [rad/s]
    rotor_radius: float            # [m]
    correction_factor: float       # iota
    uav_weight: float              # [N]
    induced_hover_velocity: float  # [m/s]
    fuselage_drag_ratio: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


@dataclass
class UavState:
    position: np.ndarray
    velocity: np.ndarray
    slot: int = 0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


class HoverPower(NamedTuple):
    blade: float
    induced: float
    total: float


def norm(x: np.ndarray) -> float:
    """Euclidean length of a float vector, equal to `np.linalg.norm(x)`."""
    return math.sqrt(x.dot(x))


def step_kinematics(state: UavState, v_next: np.ndarray,
                    cfg: FlightConfig) -> UavState:
    """First-order slot update q(l+1) = q(l) + v(l) tau."""
    v_next = np.asarray(v_next, dtype=float)
    return UavState(position=state.position + v_next * cfg.slot_duration,
                    velocity=v_next.copy(),
                    slot=state.slot + 1)


def check_flight(state: UavState, v_next: np.ndarray,
                 cfg: FlightConfig) -> list[str]:
    """Names of violated flight constraints for the proposed slot command.

    C5: next position strictly inside the box; C6: acceleration bound;
    C7: speed bound; RTS: the step finishing the episode must land within
    the return tolerance of the initial position.
    """
    v_next = np.asarray(v_next, dtype=float)
    tau = cfg.slot_duration
    violations = []
    next_pos = state.position + v_next * tau
    box = zip(cfg.q_min.tolist(), next_pos.tolist(), cfg.q_max.tolist())
    if not all(lo < x < hi for lo, x, hi in box):
        violations.append("C5")
    if norm(v_next - state.velocity) > cfg.a_max * tau * (1 + 1e-12):
        violations.append("C6")
    if norm(v_next) > cfg.v_max * (1 + 1e-12):
        violations.append("C7")
    if state.slot + 1 == cfg.n_slots:
        if norm(next_pos - cfg.q_init) > cfg.return_tolerance:
            violations.append("RTS")
    return violations


def clamp_velocity(state: UavState, v_cmd: np.ndarray,
                   cfg: FlightConfig) -> np.ndarray:
    """Nearest velocity satisfying C6 and C7 jointly.

    Clamp the velocity change into the acceleration ball, then project onto
    the speed ball; projection onto a convex set containing the previous
    (feasible) velocity cannot re-violate the acceleration bound.
    """
    v_cmd = np.asarray(v_cmd, dtype=float)
    dv = v_cmd - state.velocity
    max_dv = cfg.a_max * cfg.slot_duration
    n = norm(dv)
    if n > max_dv:
        dv = dv * (max_dv / n)
    v = state.velocity + dv
    speed = norm(v)
    if speed > cfg.v_max:
        v = v * (cfg.v_max / speed)
    return v


def hover_power(p: RotorcraftParams) -> HoverPower:
    """Blade and induced power at hover; total P_Hov = P_b + P_i."""
    p_b = (p.profile_drag_coeff / 8.0) * p.air_density * p.rotor_solidity \
        * p.rotor_disk_area * p.blade_angular_velocity ** 3 * p.rotor_radius ** 3
    p_i = (1.0 + p.correction_factor) * p.uav_weight ** 1.5 \
        / np.sqrt(2.0 * p.air_density * p.rotor_disk_area)
    return HoverPower(blade=p_b, induced=p_i, total=p_b + p_i)


def propulsion_power(v: np.ndarray, p: RotorcraftParams,
                     hover: HoverPower | None = None) -> float:
    """Forward-flight power: blade profile + induced + parasite terms.

    Depends on the speed only; reduces exactly to hover power at v = 0.
    `hover` is `hover_power(p)`, for callers that keep it.
    """
    v = np.asarray(v, dtype=float).ravel()
    speed2 = float(v.dot(v))
    hov = hover_power(p) if hover is None else hover
    tip2 = (p.blade_angular_velocity * p.rotor_radius) ** 2
    blade = (1.0 + 3.0 * speed2 / tip2) * hov.blade
    # sqrt(1 + x^2) - x, written as 1 / (sqrt(1 + x^2) + x): no cancellation
    x = speed2 / (2.0 * p.induced_hover_velocity ** 2)
    induced = math.sqrt(1.0 / (math.sqrt(1.0 + x * x) + x)) * hov.induced
    parasite = 0.5 * p.fuselage_drag_ratio * p.air_density * p.rotor_solidity \
        * p.rotor_disk_area * speed2 ** 1.5
    return float(blade + induced + parasite)


def min_propulsion_power(p: RotorcraftParams, v_max: float) -> float:
    """Least propulsion power over speeds in [0, v_max].

    The power falls and then rises with speed. A grid of speeds brackets
    its lowest point, and a golden-section search narrows the bracket until
    it stops moving.
    """
    hov = hover_power(p)

    def power(speed: float) -> float:
        return propulsion_power(np.array([speed, 0.0, 0.0]), p, hov)

    grid = np.linspace(0.0, v_max, 1001).tolist()
    powers = [power(s) for s in grid]
    best = min(powers)
    i = powers.index(best)
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    while True:
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if not lo < a < b < hi:
            return best
        pa, pb = power(a), power(b)
        best = min(best, pa, pb)
        if pa <= pb:
            hi = b
        else:
            lo = a
