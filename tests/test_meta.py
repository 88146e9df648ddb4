"""Meta-learning layer: inner/outer loop invariants and equivalences."""

import multiprocessing
import os
import weakref

import numpy as np
import pytest

from uavlc import MetaSac, ReplayBuffer, VlcUavEnv, sample_task
from uavlc.harness import parallel_map, worker_count

from conftest import small_config, time_limit


def meta_setup(seed=3, **overrides):
    cfg = small_config(**{"meta_task_count": 2, "episodes_per_task": 1,
                          "inner_steps": 1, **overrides})
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
    before = [n.flat.copy() for n in
              (meta.agent.actor, meta.agent.q1, meta.agent.q2,
               meta.agent.tq1, meta.agent.tq2)]
    adapted = meta.inner_adapt(meta.agent.clone(lr=cfg.lr_inner), buf,
                               np.arange(len(buf)), 3,
                               np.random.default_rng(0))
    after = [n.flat.copy() for n in
             (meta.agent.actor, meta.agent.q1, meta.agent.q2,
              meta.agent.tq1, meta.agent.tq2)]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    # the adapted copy did move
    assert not np.array_equal(adapted.actor.flat.copy(),
                              meta.agent.actor.flat.copy())


def test_outer_update_degenerates_to_plain_sac_step():
    # one task, zero inner steps, query batch identical: the outer step
    # must equal a plain SAC update on that batch, parameter for parameter
    cfg, probe, meta = meta_setup(seed=11)
    plain = meta.agent.clone()
    buf = filled_buffer(probe, 40, seed=1)
    batch = buf.get(np.arange(cfg.batch_size))
    meta.outer_update([meta.agent.clone().grads(batch)])
    plain.update(batch)
    for name in ("actor", "q1", "q2", "tq1", "tq2"):
        assert np.array_equal(getattr(meta.agent, name).flat.copy(),
                              getattr(plain, name).flat.copy()), name


def test_outer_update_requires_tasks():
    _, _, meta = meta_setup()
    with pytest.raises(ValueError):
        meta.outer_update([])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_outer_update_refuses_a_non_finite_query_loss():
    cfg, probe, meta = meta_setup(seed=12)
    buf = filled_buffer(probe, 40, seed=2)
    batch = buf.get(np.arange(cfg.batch_size))
    batch["rew"][0] = np.inf
    before = meta.agent.q1.flat.copy()
    with pytest.raises(ValueError, match="network q1"):
        meta.outer_update([meta.agent.clone().grads(batch)])
    assert np.array_equal(meta.agent.q1.flat.copy(), before)


def test_meta_adapt_zero_episodes_returns_initialization():
    cfg, probe, meta = meta_setup()
    task = sample_task(cfg, np.random.default_rng(4))
    agent = meta.meta_adapt(task, episodes=0, seed=0)
    assert np.array_equal(agent.actor.flat.copy(),
                          meta.agent.actor.flat.copy())
    # fresh optimizer state for the adaptation phase
    assert agent.adam.t == 0


def test_meta_adapt_is_deterministic_and_leaves_global_fixed():
    cfg, probe, meta = meta_setup()
    task = sample_task(cfg, np.random.default_rng(4))
    before = meta.agent.actor.flat.copy()
    a1 = meta.meta_adapt(task, episodes=4, seed=7)
    a2 = meta.meta_adapt(task, episodes=4, seed=7)
    assert np.array_equal(a1.actor.flat.copy(), a2.actor.flat.copy())
    assert np.array_equal(meta.agent.actor.flat.copy(), before)
    assert not np.array_equal(a1.actor.flat.copy(), before)


def test_meta_train_progresses_and_records_history():
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    history = meta.meta_train(lambda: sample_task(cfg, rng), iterations=2)
    assert len(history) == 2
    assert meta.iteration == 2
    assert len(meta.task_seeds) == cfg.meta_task_count
    assert {"actor", "critic1", "critic2", "iteration"} <= set(history[0])


def test_meta_train_on_one_row_per_task_names_the_buffer_size():
    cfg, probe, meta = meta_setup(n_slots=1)
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="buffer of 1 rows"):
        meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)


def test_meta_train_refuses_unsplittable_buffers_before_any_step(
        monkeypatch):
    cfg, probe, meta = meta_setup(n_slots=1)
    steps = []
    real_step = VlcUavEnv.step

    def step(env, raw):
        steps.append(raw)
        return real_step(env, raw)

    monkeypatch.setattr(VlcUavEnv, "step", step)
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="buffer of 1 rows"):
        meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)
    assert steps == [] and meta.iteration == 0


def test_meta_train_refuses_a_warmup_longer_than_the_buffer():
    # a task buffer never holds more rows than its capacity, so the
    # warm-up would never end and the agent would never act
    cfg, probe, meta = meta_setup(buffer_capacity=20, warmup_steps=50)
    sampled = []

    def sampler():
        sampled.append(1)
        return sample_task(cfg, np.random.default_rng(6))

    with pytest.raises(ValueError, match="warmup_steps 50 exceeds "
                                         "buffer_capacity 20"):
        meta.meta_train(sampler, iterations=1)
    assert sampled == [] and meta.iteration == 0
    cfg, probe, meta = meta_setup(buffer_capacity=20, warmup_steps=20)
    rng = np.random.default_rng(6)
    assert len(meta.meta_train(lambda: sample_task(cfg, rng), iterations=1,
                               workers=1)) == 1


def test_meta_train_holds_one_adapted_agent_at_a_time(monkeypatch):
    cfg, probe, meta = meta_setup(warmup_steps=5)
    refs = []
    real_inner_adapt = MetaSac.inner_adapt

    def inner_adapt(self, *args):
        # every agent adapted so far is gone before the next one is built
        assert [r for r in refs if r() is not None] == []
        adapted = real_inner_adapt(self, *args)
        refs.append(weakref.ref(adapted))
        return adapted

    monkeypatch.setattr(MetaSac, "inner_adapt", inner_adapt)
    rng = np.random.default_rng(6)
    # the patch and the weakrefs live in this process
    meta.meta_train(lambda: sample_task(cfg, rng), iterations=2, workers=1)
    assert len(refs) == 2 * cfg.meta_task_count
    assert [r for r in refs if r() is not None] == []


def test_meta_train_refuses_negative_iterations_before_any_task():
    cfg, probe, meta = meta_setup()
    sampled = []

    def sampler():
        sampled.append(1)
        return sample_task(cfg, np.random.default_rng(6))

    with pytest.raises(ValueError, match="iterations must be at least 0, "
                                         "got -3"):
        meta.meta_train(sampler, iterations=-3)
    assert sampled == [] and meta.iteration == 0
    assert meta.meta_train(sampler, iterations=0, workers=1) == []
    assert meta.iteration == 0


def test_meta_checkpoint_round_trip(tmp_path):
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    loaded = MetaSac.load(path, cfg)
    assert loaded.iteration == meta.iteration
    assert loaded.task_seeds == meta.task_seeds
    assert np.array_equal(loaded.agent.actor.flat.copy(),
                          meta.agent.actor.flat.copy())


def test_meta_checkpoint_resumes_both_generators(tmp_path):
    # the agent's generator is saved; the units' keyed streams follow from
    # the saved seed and iteration
    cfg, probe, meta = meta_setup(warmup_steps=5)
    rng = np.random.default_rng(6)
    meta.meta_train(lambda: sample_task(cfg, rng), iterations=1)
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    loaded = MetaSac.load(path, cfg)
    rngs = [np.random.default_rng(8) for _ in range(2)]
    histories = [m.meta_train(lambda r=r: sample_task(cfg, r), iterations=1)
                 for m, r in zip((meta, loaded), rngs)]
    assert histories[0] == histories[1]
    assert_same_meta(loaded, meta)
    obs = np.zeros(probe.obs_dim)
    assert np.array_equal(loaded.agent.act(obs), meta.agent.act(obs))


def test_meta_checkpoint_refuses_a_plain_agent_checkpoint(tmp_path):
    cfg, probe, meta = meta_setup()
    path = str(tmp_path / "agent.npz")
    meta.agent.save(path)
    with pytest.raises(ValueError, match=(
            "holds no meta-learner state .no seed, task_seeds, iteration.")):
        MetaSac.load(path, cfg)


def test_meta_checkpoint_refuses_another_config(tmp_path):
    cfg, probe, meta = meta_setup()
    path = str(tmp_path / "meta.npz")
    meta.save(path)
    with pytest.raises(ValueError, match="config_hash"):
        MetaSac.load(path, cfg.replace(gamma=0.5))


# ---------------------------------------------------------------------------
# worker counts and child processes
# ---------------------------------------------------------------------------

def assert_same_meta(a, b):
    assert np.array_equal(a.agent.flat, b.agent.flat)
    adam_a, adam_b = a.agent.adam, b.agent.adam
    assert adam_a.t == adam_b.t
    assert np.array_equal(adam_a.m, adam_b.m)
    assert np.array_equal(adam_a.v, adam_b.v)
    assert a.agent.rng.bit_generator.state == b.agent.rng.bit_generator.state
    assert (a.seed, a.task_seeds, a.iteration) == (b.seed, b.task_seeds,
                                                   b.iteration)


def trained(workers, iterations=(2, 1)):
    """A meta-learner after one `meta_train` call per entry of
    `iterations`, and the histories; three tasks, so two workers own
    unequal shares."""
    cfg, _, meta = meta_setup(warmup_steps=5, meta_task_count=3)
    rng = np.random.default_rng(6)
    history = [meta.meta_train(lambda: sample_task(cfg, rng), n,
                               workers=workers)
               for n in iterations]
    return meta, history


def test_meta_train_does_not_depend_on_workers():
    one, history_one = trained(workers=1)
    two, history_two = trained(workers=2)
    assert history_one == history_two
    assert_same_meta(one, two)
    assert one.iteration == 3


def test_meta_train_leaves_no_child_process():
    trained(workers=2)
    assert multiprocessing.active_children() == []


def test_meta_train_reraises_a_worker_error_and_stops_every_worker(
        monkeypatch):
    def step(env, raw):
        raise KeyError("no step in this test")

    monkeypatch.setattr(VlcUavEnv, "step", step)
    with pytest.raises(KeyError, match="no step in this test"):
        trained(workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(worker_count(2, 2) == 1, reason="needs two CPUs")
def test_meta_train_raises_when_a_worker_dies(monkeypatch):
    me = os.getpid()
    step = VlcUavEnv.step

    def exit_in_a_worker(env, raw):
        if os.getpid() != me:
            os._exit(3)
        return step(env, raw)

    monkeypatch.setattr(VlcUavEnv, "step", exit_in_a_worker)
    with time_limit(60):
        with pytest.raises(RuntimeError, match="exited without replying"):
            trained(workers=2)
    assert multiprocessing.active_children() == []


def _train_in_pool(workers):
    meta, history = trained(workers)
    return os.getpid(), history, meta.agent.flat


def test_meta_train_in_a_pool_worker_runs_in_that_worker():
    results = list(parallel_map(_train_in_pool, [2, 2], workers=2))
    meta, history = trained(workers=1)
    for pid, pool_history, flat in results:
        assert pool_history == history
        assert np.array_equal(flat, meta.agent.flat)
    if worker_count(2, 2) > 1:
        assert all(pid != os.getpid() for pid, _, _ in results)
