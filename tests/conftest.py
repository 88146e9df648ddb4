"""Shared fixtures: small fast configs and environments."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from uavlc import SystemConfig, Task, VlcUavEnv, sample_task


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
