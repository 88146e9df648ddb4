"""Environment MDP semantics: decoding, rewards, termination, tasks."""

import numpy as np
import pytest

from uavlc import Task, VlcUavEnv, sample_task

from conftest import small_config


def test_dimensions(env):
    cfg = env.cfg
    assert env.obs_dim == cfg.n_leds * cfg.n_users + 7
    assert env.action_dim == cfg.n_leds * cfg.n_users + cfg.n_leds + 3


def test_channels_only_observation_mode():
    cfg = small_config(observe_pose=False)
    env = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    assert env.obs_dim == cfg.n_leds * cfg.n_users
    obs = env.reset(seed=0)
    assert obs.shape == (env.obs_dim,)


def test_reset_is_deterministic_per_seed(env):
    o1 = env.reset(seed=123)
    o2 = env.reset(seed=123)
    assert np.array_equal(o1, o2)
    o3 = env.reset(seed=124)
    assert not np.array_equal(o1, o3)


def test_decoded_actions_respect_dynamic_range_and_selection(env):
    env.reset(seed=0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        act = env.decode_action(rng.uniform(-3.0, 3.0, env.action_dim))
        row_sums = np.abs(act.w).sum(axis=1)
        assert np.all(row_sums <= env.bound * (1 + 1e-9))
        assert act.selection.n_active == env.n_active
        assert np.all(act.w[act.selection.a == 0] == 0.0)
        assert act.i_dc == env.i_dc


def test_decoded_velocity_is_clamped(env):
    env.reset(seed=0)
    raw = np.ones(env.action_dim)
    act = env.decode_action(raw)
    cfg = env.cfg
    assert np.linalg.norm(act.velocity) <= cfg.v_max * (1 + 1e-9)
    assert np.linalg.norm(act.velocity - env.uav_state.velocity) <= \
        cfg.a_max * cfg.slot_duration * (1 + 1e-9)


def test_episode_runs_exactly_n_slots(env):
    obs = env.reset(seed=5)
    rng = np.random.default_rng(2)
    steps = 0
    while not env.done:
        tr = env.step(rng.uniform(-1, 1, env.action_dim))
        obs = tr.next_obs
        steps += 1
    assert steps == env.cfg.n_slots
    assert len(env.trace.rows) == steps
    with pytest.raises(RuntimeError):
        env.step(np.zeros(env.action_dim))


def test_reward_is_negative_total_power_when_feasible(make_env):
    # hovering at start with zero velocity and tiny rate floor is feasible
    # away from the final slot
    env = make_env(r_min=1e-6, n_slots=50)
    env.reset(seed=3)
    raw = np.zeros(env.action_dim)
    raw[-3:] = 0.0
    tr = env.step(raw)
    row = env.trace.rows[-1]
    if row["feasible"]:
        assert tr.reward == pytest.approx(-row["p_total"], rel=1e-12)


def test_penalty_reward_on_infeasible_slot(make_env):
    env = make_env(r_min=60.0)  # unreachable rate floor
    env.reset(seed=3)
    tr = env.step(np.zeros(env.action_dim))
    assert env.trace.rows[-1]["feasible"] == 0
    assert tr.reward == pytest.approx(env.penalty)
    assert env.penalty == pytest.approx(-(env.cfg.p_max + env.hover.total))


def test_paper_reward_mode_returns_zero_on_infeasible(make_env):
    env = make_env(r_min=60.0, reward_mode="paper")
    env.reset(seed=3)
    tr = env.step(np.zeros(env.action_dim))
    assert tr.reward == 0.0


def test_step_determinism(make_env):
    results = []
    for _ in range(2):
        env = make_env()
        obs = env.reset(seed=9)
        rng = np.random.default_rng(17)
        rewards = []
        while not env.done:
            tr = env.step(rng.uniform(-1, 1, env.action_dim))
            rewards.append(tr.reward)
        results.append(rewards)
    assert results[0] == results[1]


def test_sample_task_geometry(cfg):
    rng = np.random.default_rng(7)
    for _ in range(20):
        task = sample_task(cfg, rng)
        q_min = np.asarray(cfg.q_min)
        q_max = np.asarray(cfg.q_max)
        assert task.user_positions.shape == (cfg.n_users, 3)
        assert np.all(task.user_positions[:, 2] == 0.0)
        assert np.all(task.user_positions[:, :2] >= q_min[:2])
        assert np.all(task.user_positions[:, :2] <= q_max[:2])
        assert np.all(task.q_init > q_min)
        assert np.all(task.q_init < q_max)


def test_sample_task_reproducible_from_seed(cfg):
    t1 = sample_task(cfg, np.random.default_rng(5))
    t2 = sample_task(cfg, np.random.default_rng(5))
    assert t1.seed == t2.seed
    assert np.array_equal(t1.user_positions, t2.user_positions)
    assert np.array_equal(t1.q_init, t2.q_init)


def test_trace_csv_round_trip(env, tmp_path):
    env.reset(seed=11)
    rng = np.random.default_rng(4)
    while not env.done:
        env.step(rng.uniform(-1, 1, env.action_dim))
    path = tmp_path / "trace.csv"
    env.trace.write_csv(str(path))
    import csv

    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == env.cfg.n_slots
    assert float(rows[0]["p_total"]) == pytest.approx(
        env.trace.rows[0]["p_total"])


def test_observation_reflects_channel_scale(make_env):
    env = make_env(csi_radius=0.0)
    obs = env.reset(seed=0)
    chan_block = obs[:env.cfg.n_leds * env.cfg.n_users]
    expected = np.log1p(env.channels.est_gain / env._h_ref).ravel()
    assert np.allclose(chan_block, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raw_action_raises_naming_the_slot(env, bad):
    env.reset(seed=2)
    rng = np.random.default_rng(3)
    for _ in range(2):
        env.step(rng.uniform(-1, 1, env.action_dim))
    raw = rng.uniform(-1, 1, env.action_dim)
    raw[-1] = bad
    with pytest.raises(ValueError, match="slot 2"):
        env.decode_action(raw)
    with pytest.raises(ValueError, match="non-finite raw action at slot 2"):
        env.step(raw)
    # the refused slot left no row and did not advance the episode
    assert len(env.trace.rows) == 2
    assert env.uav_state.slot == 2


def test_step_returns_the_observation_it_will_act_on(env):
    obs = env.reset(seed=8)
    rng = np.random.default_rng(9)
    while not env.done:
        tr = env.step(rng.uniform(-1, 1, env.action_dim))
        assert np.array_equal(tr.obs, obs)
        obs = tr.next_obs
