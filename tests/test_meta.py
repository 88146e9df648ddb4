"""Meta-learning layer: inner/outer loop invariants and equivalences."""

import numpy as np
import pytest

from uavlc import MetaSac, ReplayBuffer, VlcUavEnv, sample_task

from conftest import small_config


def meta_setup(seed=3, **overrides):
    cfg = small_config(meta_task_count=2, episodes_per_task=1,
                       inner_steps=1, **overrides)
    probe = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(0)))
    return cfg, probe, MetaSac(cfg, probe.obs_dim, probe.action_dim,
                               seed=seed)


def filled_buffer(env, n, seed=0):
    buf = ReplayBuffer(1000, env.obs_dim, env.action_dim)
    rng = np.random.default_rng(seed)
    obs = env.reset(seed=seed)
    for _ in range(n):
        if env.done:
            obs = env.reset(seed=int(rng.integers(2 ** 31)))
        tr = env.step(rng.uniform(-1, 1, env.action_dim))
        buf.add(tr.obs, tr.raw_action, tr.reward, tr.next_obs, tr.done)
        obs = tr.next_obs
    return buf


def test_inner_adapt_never_mutates_global_parameters():
    cfg, probe, meta = meta_setup()
    buf = filled_buffer(probe, 40)
    before = [n.get_flat().copy() for n in
              (meta.agent.actor, meta.agent.q1, meta.agent.q2,
               meta.agent.tq1, meta.agent.tq2)]
    adapted = meta.inner_adapt(buf, np.arange(len(buf)), steps=3)
    after = [n.get_flat() for n in
             (meta.agent.actor, meta.agent.q1, meta.agent.q2,
              meta.agent.tq1, meta.agent.tq2)]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    # the adapted copy did move
    assert not np.array_equal(adapted.actor.get_flat(),
                              meta.agent.actor.get_flat())


def test_outer_update_degenerates_to_plain_sac_step():
    # one task, zero inner steps, query batch identical: the outer step
    # must equal a plain SAC update on that batch, parameter for parameter
    cfg, probe, meta = meta_setup(seed=11)
    plain = meta.agent.clone()
    buf = filled_buffer(probe, 40, seed=1)
    batch = buf.get(np.arange(cfg.batch_size))
    adapted = meta.inner_adapt(buf, np.arange(len(buf)), steps=0)
    meta.outer_update([adapted], [batch])
    plain.update(batch)
    for name in ("actor", "q1", "q2", "tq1", "tq2"):
        assert np.array_equal(getattr(meta.agent, name).get_flat(),
                              getattr(plain, name).get_flat()), name


def test_outer_update_requires_tasks():
    _, _, meta = meta_setup()
    with pytest.raises(ValueError):
        meta.outer_update([], [])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_outer_update_refuses_a_non_finite_query_loss():
    cfg, probe, meta = meta_setup(seed=12)
    buf = filled_buffer(probe, 40, seed=2)
    batch = buf.get(np.arange(cfg.batch_size))
    batch["rew"][0] = np.inf
    adapted = meta.inner_adapt(buf, np.arange(len(buf)), steps=0)
    before = meta.agent.q1.get_flat().copy()
    with pytest.raises(ValueError, match="network q1"):
        meta.outer_update([adapted], [batch])
    assert np.array_equal(meta.agent.q1.get_flat(), before)


def test_meta_adapt_zero_episodes_returns_initialization():
    cfg, probe, meta = meta_setup()
    task = sample_task(cfg, np.random.default_rng(4))
    agent = meta.meta_adapt(task, episodes=0, seed=0)
    assert np.array_equal(agent.actor.get_flat(),
                          meta.agent.actor.get_flat())
    # fresh optimizer state for the adaptation phase
    assert agent.adam_actor.t == 0


def test_meta_adapt_is_deterministic_and_leaves_global_fixed():
    cfg, probe, meta = meta_setup()
    task = sample_task(cfg, np.random.default_rng(4))
    before = meta.agent.actor.get_flat().copy()
    a1 = meta.meta_adapt(task, episodes=4, seed=7)
    a2 = meta.meta_adapt(task, episodes=4, seed=7)
    assert np.array_equal(a1.actor.get_flat(), a2.actor.get_flat())
    assert np.array_equal(meta.agent.actor.get_flat(), before)
    assert not np.array_equal(a1.actor.get_flat(), before)


def test_meta_train_progresses_and_records_history():
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    history = meta.meta_train(lambda: sample_task(cfg, rng), iterations=2)
    assert len(history) == 2
    assert meta.iteration == 2
    assert len(meta.task_seeds) == cfg.meta_task_count
    assert {"actor", "critic1", "critic2", "iteration"} <= set(history[0])


def test_meta_checkpoint_round_trip(tmp_path):
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    loaded = MetaSac.load(path, cfg)
    assert loaded.iteration == meta.iteration
    assert loaded.task_seeds == meta.task_seeds
    assert np.array_equal(loaded.agent.actor.get_flat(),
                          meta.agent.actor.get_flat())


def test_meta_checkpoint_resumes_both_generators(tmp_path):
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    loaded = MetaSac.load(path, cfg)
    assert loaded.rng.integers(2 ** 31) == meta.rng.integers(2 ** 31)
    obs = np.zeros(probe.obs_dim)
    assert np.array_equal(loaded.agent.act(obs), meta.agent.act(obs))


def test_meta_checkpoint_refuses_another_config(tmp_path):
    cfg, probe, meta = meta_setup()
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    with pytest.raises(ValueError, match="config_hash"):
        MetaSac.load(path, cfg.replace(gamma=0.5))
