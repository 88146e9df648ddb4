"""The benchmark's span tracer still finds every name it wraps.

`perfbench/spans.py` replaces library functions and methods at the place
they are looked up; a refactor that moves or renames one of them makes
`Tracer.recording()` fail with a KeyError. This test enters and leaves it
around a short rollout.
"""

import importlib.util
from pathlib import Path

import numpy as np

import uavlc.env
from uavlc import RandomPolicy, VlcUavEnv, rollout, sample_task

from conftest import small_config

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_and_restores_every_trace_point():
    cfg = small_config()
    env = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(1)))
    step = VlcUavEnv.step
    feasibility = uavlc.env.check_p1_feasibility
    tracer = spans.Tracer()
    with tracer.recording():
        assert VlcUavEnv.step is not step
        rollout(env, RandomPolicy(env, seed=0), 1)
    assert VlcUavEnv.step is step
    assert uavlc.env.check_p1_feasibility is feasibility
    for name, owner, attr, _ in spans.TRACE_POINTS:
        assert not hasattr(vars(owner)[attr], "__wrapped__"), name
    assert tracer.calls["env.step"] == cfg.n_slots
    assert tracer.calls["metrics.check_p1_feasibility"] == cfg.n_slots
    # the check's kernels are looked up in uavlc.metrics, where they are
    # traced
    assert tracer.calls["metrics.per_user_rate"] == cfg.n_slots
    assert tracer.calls["metrics.order_users"] == cfg.n_slots
    assert tracer.episodes == 1 and tracer.rows == cfg.n_slots
