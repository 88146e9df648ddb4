"""Shared fixtures: small fast configs and environments, and the bitwise
comparison the kernel oracles use."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from uavlc import SystemConfig, VlcUavEnv, sample_task


def small_config(**overrides):
    """Tiny system for fast unit tests; override freely."""
    base = dict(
        n_leds=4, n_users=2, n_slots=5,
        hidden_sizes=(8, 8), batch_size=16, warmup_steps=10,
        buffer_capacity=2000,
        noise_var=1e-18, csi_radius=1e-12,
        r_min=0.1, p_max=2000.0,
        q_min=(0.0, 0.0, 10.0), q_max=(50.0, 50.0, 40.0),
    )
    base.update(overrides)
    return SystemConfig(**base)


# The benchmark's two stepping regimes (`perfbench/workloads.py`, gate power
# and K regimes), copied by value so that neither a change of the library's
# defaults nor of the benchmark changes them; the two fields the library no
# longer has are left out.
_BENCH_BASE = dict(
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
    inner_steps=5, support_fraction=0.8, meta_task_count=4,
    episodes_per_task=1, lr_inner=1e-3,
)
BENCH_POWER_REGIME = {
    **_BENCH_BASE,
    "q_max": (100.0, 100.0, 100.0), "q_min": (0.0, 0.0, 60.0),
    "r_min": 0.01, "p_max": 1300.0, "noise_var": 1e-22,
    "csi_radius": 1e-10, "entropy_weight": 0.01, "episodes_per_task": 3}
BENCH_K_REGIME = {
    **_BENCH_BASE,
    "i_high": 1.0, "r_min": 0.5, "noise_var": 1e-16,
    "csi_radius": 1e-12, "circuit_power": 0.1,
    "conversion_factor": 0.01, "p_max": 2000.0,
    "q_max": (40.0, 40.0, 30.0), "q_min": (0.0, 0.0, 20.0),
    "uav_weight": 1e-3, "rotor_radius": 0.01,
    "blade_angular_velocity": 1.0, "rotor_disk_area": 1e-4,
    "induced_hover_velocity": 0.5, "fuselage_drag_ratio": 1e-6}


def same_floats(got, want):
    """Equal bit for bit: arrays by dtype, shape and bytes, dicts by key
    order and the repr of every value, anything else by its repr (which
    tells -0.0 from 0.0, and a Python float from a numpy one)."""
    if isinstance(want, np.ndarray):
        return (got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    if isinstance(want, dict):
        return (list(got) == list(want)
                and all(repr(got[k]) == repr(want[k]) for k in want))
    return repr(got) == repr(want)


@pytest.fixture
def cfg():
    return small_config()


@pytest.fixture
def env(cfg):
    task = sample_task(cfg, np.random.default_rng(42))
    return VlcUavEnv(cfg, task)


@pytest.fixture
def make_env():
    def _make(**overrides):
        c = small_config(**overrides)
        task = sample_task(c, np.random.default_rng(42))
        return VlcUavEnv(c, task)
    return _make


@contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError once `seconds` have passed, so that
    a hang is a test failure instead of a stuck suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
