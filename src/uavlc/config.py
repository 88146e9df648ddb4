"""System configuration: physical, flight, QoS and learning constants.

All defaults follow the simulation parameter set of the source system
(10-LED array, 60 deg optics, rotary-wing drone). The maximum-velocity
constant appears twice in that set (20 m/s and 10 m/s); we keep the later
value, 10 m/s.

Each field takes values of its default's kind: a float field also takes an
int, the penalty (default None) a number or None, and a tuple field a list
or tuple of its default's element kind. A bool is no number. Values are
kept as given, so an int written for a float field stays in the dump.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import numbers
from dataclasses import dataclass

from .channel import OpticsParams
from .dimming import DimmingConfig, active_led_count, dc_bias_for
from .metrics import PowerBreakdown
from .uav import FlightConfig, RotorcraftParams, min_propulsion_power

log = logging.getLogger(__name__)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _kind(default):
    """What a field whose default is `default` takes: (a description, a
    test of a value)."""
    if isinstance(default, tuple):
        what, test = _kind(default[0])
        return (f"a list, each item {what}",
                lambda v: isinstance(v, (list, tuple)) and all(map(test, v)))
    if isinstance(default, bool):
        return "true or false", lambda v: isinstance(v, bool)
    if isinstance(default, int):
        return "an integer", lambda v: (_is_number(v)
                                        and isinstance(v, numbers.Integral))
    if isinstance(default, float):
        return "a number", _is_number
    if default is None:
        return "a number or null", lambda v: v is None or _is_number(v)
    return "a string", lambda v: isinstance(v, str)


@dataclass
class SystemConfig:
    # --- optics / channel ---
    half_power_semiangle_deg: float = 60.0   # LED half-power semi-angle
    fov_semiangle_deg: float = 60.0          # receiver FOV semi-angle
    pd_area_m2: float = 1e-4                 # photo-diode detection area
    refractive_index: float = 1.5            # concentrator internal index
    noise_var: float = 1e-20                 # per-user receiver noise variance
    csi_radius: float = 1e-8                 # bounded channel estimation error

    # --- LED array / dimming ---
    n_leds: int = 10
    dimming_level: float = 1.0               # target dimming level, (0, 1]
    i_low: float = 0.0                       # LED driver current lower bound [A]
    i_high: float = 0.010                    # LED driver current upper bound [A]

    # --- power accounting ---
    amp_efficiency: float = 1.2              # amplifier efficiency factor
    conversion_factor: float = 1.0           # DC conversion factor
    circuit_power: float = 1.0               # switch/control circuit power [W]

    # --- QoS ---
    r_min: float = 2.0                       # per-user rate floor [bits/s/Hz]
    p_max: float = 20.0                      # total power budget [W]

    # --- flight ---
    slot_duration: float = 1.0               # tau [s]
    n_slots: int = 20                        # L
    v_max: float = 10.0                      # [m/s]
    a_max: float = 6.0                       # [m/s^2]
    q_min: tuple = (0.0, 0.0, 10.0)          # [m]
    q_max: tuple = (150.0, 150.0, 100.0)     # [m]
    return_tolerance: float = 0.5            # return-to-start slack [m]

    # --- rotorcraft power model ---
    profile_drag_coeff: float = 0.012        # rho
    air_density: float = 1.225               # zeta [kg/m^3]
    rotor_solidity: float = 0.05
    rotor_disk_area: float = 0.79            # [m^2]
    blade_angular_velocity: float = 400.0    # [rad/s]
    rotor_radius: float = 0.05               # [m]
    correction_factor: float = 1.0           # iota
    uav_weight: float = 100.0                # [N]
    induced_hover_velocity: float = 7.2      # [m/s]
    fuselage_drag_ratio: float = 0.3

    # --- environment / MDP ---
    n_users: int = 5
    reward_mode: str = "penalty"             # "penalty" or "paper" (0 on infeasible)
    penalty: float | None = None             # default: -(p_max + hover power)
    observe_pose: bool = True                # False: channels-only state
    clamp_velocity: bool = True              # False: report C6/C7 violations instead

    # --- SAC hyperparameters ---
    gamma: float = 0.99
    entropy_weight: float = 0.2
    polyak: float = 0.005
    batch_size: int = 64
    lr_actor: float = 3e-4
    lr_critic1: float = 3e-4
    lr_critic2: float = 3e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_sizes: tuple = (64, 64)
    buffer_capacity: int = 100000
    reward_scale: float = 1e-3               # applied inside the learner only
    warmup_steps: int = 200                  # uniform-random action steps

    # --- meta-learning ---
    inner_steps: int = 5
    support_fraction: float = 0.8
    meta_task_count: int = 4
    episodes_per_task: int = 1
    lr_inner: float = 1e-3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            what, test = _kind(f.default)
            value = getattr(self, f.name)
            if not test(value):
                raise ValueError(f"config: {f.name} must be {what}, "
                                 f"got {value!r}")
        self.q_min = tuple(float(v) for v in self.q_min)
        self.q_max = tuple(float(v) for v in self.q_max)
        self.hidden_sizes = tuple(int(v) for v in self.hidden_sizes)
        self.validate()

    def validate(self):
        def req(cond, msg):
            if not cond:
                raise ValueError(f"config: {msg}")

        # NaN fails every comparison below and inf passes sign checks, so
        # refuse both first (ints and a None penalty are not floats)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for v in value if f.name in ("q_min", "q_max") else (value,):
                req(not isinstance(v, float) or math.isfinite(v),
                    f"{f.name} must be finite, got {v}")
        # each physics parameter set checks its own rules (any start will do)
        try:
            for build in (self.optics, self.dimming, self.rotor):
                build()
            self.flight(self.q_min)
        except ValueError as e:
            raise ValueError(f"config: {e}") from e
        req(self.r_min > 0 and self.p_max > 0,
            "r_min and p_max must be positive")
        req(self.noise_var > 0, "noise variance must be positive")
        req(self.csi_radius >= 0, "CSI radius must be non-negative")
        req(self.n_users >= 1, "need at least one user")
        req(self.reward_mode in ("penalty", "paper"),
            "reward_mode must be 'penalty' or 'paper'")
        req(0.0 < self.gamma <= 1.0, "gamma must be in (0, 1]")
        req(self.entropy_weight >= 0, "entropy weight must be non-negative")
        req(0.0 < self.polyak <= 1.0,
            f"polyak must be in (0, 1], got {self.polyak}")
        for name, least in (("batch_size", 1), ("buffer_capacity", 1),
                            ("meta_task_count", 1), ("episodes_per_task", 1),
                            ("warmup_steps", 0), ("inner_steps", 0)):
            value = getattr(self, name)
            req(value >= least,
                f"{name} must be at least {least}, got {value}")
        # a buffer smaller than a batch never serves one: no update runs
        req(self.batch_size <= self.buffer_capacity,
            f"batch_size must be at most buffer_capacity "
            f"{self.buffer_capacity}, got {self.batch_size}")
        req(all(h >= 1 for h in self.hidden_sizes),
            f"hidden_sizes must be at least 1, got {self.hidden_sizes}")
        for name in ("lr_actor", "lr_critic1", "lr_critic2", "lr_inner"):
            value = getattr(self, name)
            req(value > 0, f"{name} must be positive, got {value}")
        req(0.0 < self.support_fraction < 1.0,
            "support fraction must be in (0, 1)")

    # -- physics parameter sets --

    def optics(self) -> OpticsParams:
        """The LED and photo-diode optics of the channel model."""
        return OpticsParams(
            half_power_semiangle=math.radians(self.half_power_semiangle_deg),
            fov_semiangle=math.radians(self.fov_semiangle_deg),
            pd_area=self.pd_area_m2, refractive_index=self.refractive_index)

    def rotor(self) -> RotorcraftParams:
        """The rotor power model's parameters (same field names)."""
        names = [f.name for f in dataclasses.fields(RotorcraftParams)]
        return RotorcraftParams(**{name: getattr(self, name)
                                   for name in names})

    def dimming(self) -> DimmingConfig:
        """The dimming settings the env decodes actions under."""
        return DimmingConfig(eta=self.dimming_level, i_low=self.i_low,
                             i_high=self.i_high, n_leds=self.n_leds)

    def flight(self, q_init) -> FlightConfig:
        """The flight envelope (C5-C7, RTS) of a UAV starting at `q_init`."""
        return FlightConfig(
            slot_duration=self.slot_duration, n_slots=self.n_slots,
            v_max=self.v_max, a_max=self.a_max, q_min=self.q_min,
            q_max=self.q_max, q_init=q_init,
            return_tolerance=self.return_tolerance)

    def power_floor(self) -> float:
        """Least P_Tot any slot can draw [W].

        Circuit + DC bias + the least propulsion power over speeds in
        [0, v_max]. Past p_max, C2 fails in every slot whatever the policy.
        """
        n_active = active_led_count(self.dimming_level, self.n_leds)
        bias = (self.conversion_factor * n_active
                * dc_bias_for(self.dimming(), n_active))
        return PowerBreakdown(
            transmit=0.0, bias=bias, circuit=self.circuit_power,
            propulsion=min_propulsion_power(self.rotor(), self.v_max)).total

    # -- serialization --

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["q_min"] = list(self.q_min)
        d["q_max"] = list(self.q_max)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    def dump(self) -> str:
        """Canonical YAML form (sorted keys); basis of the config hash."""
        import yaml     # imported on first use: `import uavlc` needs none
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.dump().encode()).hexdigest()[:16]

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = {f.name for f in dataclasses.fields(SystemConfig)}


def load_config(path: str | None = None) -> SystemConfig:
    """Load a YAML config file; missing keys fall back to defaults.

    Unknown keys and out-of-range values are rejected. An empty (or absent)
    file yields the full default parameter set. A config whose power floor
    exceeds p_max loads with a warning: no slot can satisfy C2.
    """
    data = {}
    if path is not None:
        import yaml
        with open(path) as f:
            try:
                data = yaml.safe_load(f)
            except yaml.YAMLError as e:
                raise ValueError(f"config parse error in {path}: {e}") from e
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: top level must be a mapping")
        unknown = set(data) - _FIELD_NAMES
        if unknown:
            raise ValueError(f"config {path}: unknown keys {sorted(unknown)}")
    cfg = SystemConfig(**data)
    floor = cfg.power_floor()
    if floor > cfg.p_max * (1.0 + 1e-12):
        log.warning("config: P_Tot lower bound %.1f W exceeds p_max %g W; "
                    "C2 fails in every slot", floor, cfg.p_max)
    return cfg
