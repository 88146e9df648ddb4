"""SAC core: replay buffer, exact gradients, checkpoints, training loop."""

import json

import numpy as np
import pytest

from uavlc import (MetaSac, ReplayBuffer, SacAgent, VlcUavEnv, rollout,
                   sample_task, train_sac)
from uavlc.baselines import RandomPolicy
from uavlc.nets import Adam, Mlp
from uavlc.sac import INITIAL_ROWS, gaussian_policy_forward

from conftest import small_config
from test_learn_reference import DISTINCT_RATES


def make_batch(rng, n, obs_dim, act_dim):
    return {"obs": rng.standard_normal((n, obs_dim)),
            "act": np.tanh(rng.standard_normal((n, act_dim))),
            "rew": rng.standard_normal(n),
            "next_obs": rng.standard_normal((n, obs_dim)),
            "done": rng.integers(0, 2, n).astype(float)}


def small_agent(seed, obs_dim=5, act_dim=2, **overrides):
    cfg = small_config(hidden_sizes=(16,), **overrides)
    return SacAgent(obs_dim, act_dim, cfg, seed=seed), cfg


def critic_fd(agent, batch, xi, which, eps=1e-6):
    y = agent.critic_target(batch["rew"], batch["done"], batch["next_obs"],
                            xi=xi)
    qin = np.concatenate([batch["obs"], batch["act"]], axis=1)
    net = agent.q1 if which == 0 else agent.q2

    def loss_at(flat):
        probe = net.clone()
        probe.flat[:] = flat
        pred = probe(qin)[:, 0]
        return float(np.mean((pred - y) ** 2))

    flat = net.flat.copy()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += eps
        fm[i] -= eps
        g[i] = (loss_at(fp) - loss_at(fm)) / (2 * eps)
    return g


def actor_fd(agent, batch, xi, eps=1e-6):
    cfg = agent.cfg
    obs = batch["obs"]

    def loss_at(flat):
        probe = agent.actor.clone()
        probe.flat[:] = flat
        fw = gaussian_policy_forward(probe, obs, xi)
        qin = np.concatenate([obs, fw["action"]], axis=1)
        q_min = np.minimum(agent.q1(qin)[:, 0], agent.q2(qin)[:, 0])
        return float(np.mean(cfg.entropy_weight * fw["logp"] - q_min))

    flat = agent.actor.flat.copy()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += eps
        fm[i] -= eps
        g[i] = (loss_at(fp) - loss_at(fm)) / (2 * eps)
    return g


def max_rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric)
                        / (np.abs(numeric) + 1e-8)))


def test_critic_gradients_match_finite_differences():
    agent, _ = small_agent(seed=0)
    rng = np.random.default_rng(10)
    batch = make_batch(rng, 8, 5, 2)
    xi = rng.standard_normal((8, 2))
    (g1, _), (g2, _) = agent.critic_grads(batch, xi=xi)
    a1 = np.concatenate([g.ravel() for g in g1])
    a2 = np.concatenate([g.ravel() for g in g2])
    assert max_rel_err(a1, critic_fd(agent, batch, xi, 0)) < 1e-4
    assert max_rel_err(a2, critic_fd(agent, batch, xi, 1)) < 1e-4


def test_actor_gradient_matches_finite_differences():
    agent, _ = small_agent(seed=1)
    rng = np.random.default_rng(11)
    batch = make_batch(rng, 8, 5, 2)
    xi = rng.standard_normal((8, 2))
    grads, _ = agent.actor_grads(batch, xi=xi)
    analytic = np.concatenate([g.ravel() for g in grads])
    assert max_rel_err(analytic, actor_fd(agent, batch, xi)) < 1e-4


def test_replay_buffer_ring_semantics():
    buf = ReplayBuffer(capacity=3, obs_dim=2, act_dim=1)
    for i in range(5):
        buf.add(np.full(2, i), np.full(1, i), float(i), np.full(2, i + 10),
                i == 4)
    assert len(buf) == 3
    # oldest entries (0, 1) overwritten by (3, 4)
    stored = sorted(buf.rew.tolist())
    assert stored == [2.0, 3.0, 4.0]


def test_replay_buffer_sampling_and_batches():
    buf = ReplayBuffer(capacity=50, obs_dim=2, act_dim=1)
    rng = np.random.default_rng(0)
    for i in range(20):
        buf.add(rng.standard_normal(2), rng.standard_normal(1),
                float(i), rng.standard_normal(2), False)
    batch = buf.sample(8, rng)
    assert batch["obs"].shape == (8, 2)
    assert batch["rew"].shape == (8,)
    with pytest.raises(ValueError):
        ReplayBuffer(4, 1, 1).sample(2, rng)


def test_replay_buffer_split_is_disjoint_partition():
    buf = ReplayBuffer(capacity=50, obs_dim=1, act_dim=1)
    for i in range(30):
        buf.add([i], [0.0], 0.0, [0.0], False)
    rng = np.random.default_rng(3)
    support, query = buf.split_indices(0.8, rng)
    assert len(set(support) & set(query)) == 0
    assert sorted(np.concatenate([support, query])) == list(range(30))
    assert len(support) == 24


class FullCapacityBuffer:
    """The replay buffer as it was before its storage grew: all `capacity`
    rows allocated up front (kept verbatim as the reference)."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.act = np.zeros((capacity, act_dim))
        self.rew = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self._pos = 0

    def add(self, obs, act, rew, next_obs, done):
        i = self._pos
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.next_obs[i] = next_obs
        self.done[i] = float(done)
        self._pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def get(self, idx: np.ndarray) -> dict:
        return {"obs": self.obs[idx], "act": self.act[idx],
                "rew": self.rew[idx], "next_obs": self.next_obs[idx],
                "done": self.done[idx]}

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        replace = batch_size > self.size
        idx = rng.choice(self.size, size=batch_size, replace=replace)
        return self.get(idx)

    def split_indices(self, support_fraction: float,
                      rng: np.random.Generator):
        if self.size < 2:
            raise ValueError(f"cannot split a buffer of {self.size} rows into "
                             f"support and query sets; need at least 2")
        perm = rng.permutation(self.size)
        cut = max(1, int(round(support_fraction * self.size)))
        cut = min(cut, self.size - 1)
        return perm[:cut], perm[cut:]


def assert_same_batch(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


def test_sample_from_rows_draws_what_rng_choice_over_them_draws():
    buf = ReplayBuffer(capacity=50, obs_dim=2, act_dim=1)
    fill = np.random.default_rng(1)
    for i in range(20):
        buf.add(fill.standard_normal(2), fill.standard_normal(1), float(i),
                fill.standard_normal(2), i % 3 == 0)
    # without replacement while the pool holds a batch, with it below
    for rows, size in ((None, 8), (None, 30), (np.array([3, 7, 11, 15]), 4),
                       (np.array([19, 2, 5]), 6)):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        pool = buf.size if rows is None else rows
        n = buf.size if rows is None else len(rows)
        idx = ref.choice(pool, size=size, replace=n < size)
        assert_same_batch(buf.sample(size, rng, rows), buf.get(idx))
        assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError, match="empty"):
        buf.sample(2, np.random.default_rng(0), np.array([], dtype=int))


def test_growing_buffer_equals_full_capacity_buffer_bitwise():
    # storage grows twice (INITIAL_ROWS, twice that, capacity), then the
    # ring wraps over the oldest rows
    capacity = 2 * INITIAL_ROWS + 88
    checked = {INITIAL_ROWS - 1, INITIAL_ROWS, INITIAL_ROWS + 1,
               capacity - 1, capacity, capacity + 1}
    buf = ReplayBuffer(capacity, obs_dim=3, act_dim=2)
    ref = FullCapacityBuffer(capacity, obs_dim=3, act_dim=2)
    data_rng = np.random.default_rng(5)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for n in range(1, 2 * capacity + 300):
        row = (data_rng.standard_normal(3), data_rng.standard_normal(2),
               float(data_rng.standard_normal()),
               data_rng.standard_normal(3), n % 7 == 0)
        buf.add(*row)
        ref.add(*row)
        assert (buf.taken, buf.size, buf.taken % capacity) == (
            n, ref.size, ref._pos)
        if n % 97 and n not in checked:
            continue
        for key in ("obs", "act", "rew", "next_obs", "done"):
            assert np.array_equal(getattr(buf, key)[:buf.size],
                                  getattr(ref, key)[:ref.size]), key
        idx = np.arange(buf.size)[::-1]
        assert_same_batch(buf.get(idx), ref.get(idx))
        assert_same_batch(buf.sample(32, rng), ref.sample(32, ref_rng))
        assert_same_batch(buf.sample(2 * n, rng),
                          ref.sample(2 * n, ref_rng))
        if n >= 2:
            for part, ref_part in zip(buf.split_indices(0.8, rng),
                                      ref.split_indices(0.8, ref_rng)):
                assert np.array_equal(part, ref_part)
    assert buf.taken % capacity != 0 and buf.size == capacity   # wrapped


def test_buffer_storage_grows_by_doubling_up_to_capacity():
    for capacity in (1, 3, INITIAL_ROWS, INITIAL_ROWS + 1, 1000):
        buf = ReplayBuffer(capacity, obs_dim=2, act_dim=1)
        rows = {len(buf.rew)}
        for _ in range(2 * capacity + 3):
            buf.add([0.0, 0.0], [0.0], 0.0, [0.0, 0.0], False)
            stored = len(buf.rew)
            rows.add(stored)
            assert stored <= max(INITIAL_ROWS, 2 * buf.size)
            assert stored <= capacity
            for key in ("obs", "act", "next_obs", "done"):
                assert len(getattr(buf, key)) == stored
        assert stored == capacity
        assert min(rows) == min(capacity, INITIAL_ROWS)


def test_replay_buffer_split_refuses_fewer_than_two_rows():
    buf = ReplayBuffer(capacity=5, obs_dim=1, act_dim=1)
    rng = np.random.default_rng(3)
    for size in (0, 1):
        with pytest.raises(ValueError, match=f"buffer of {size} rows"):
            buf.split_indices(0.8, rng)
        buf.add([0.0], [0.0], 0.0, [0.0], False)
    support, query = buf.split_indices(0.8, rng)
    assert len(support) == len(query) == 1


def test_policy_actions_bounded_and_deterministic_mode():
    agent, _ = small_agent(seed=2)
    obs = np.random.default_rng(5).standard_normal(5)
    a1 = agent.act(obs, deterministic=True)
    a2 = agent.act(obs, deterministic=True)
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1) < 1.0)
    stoch = [agent.act(obs) for _ in range(3)]
    assert not np.array_equal(stoch[0], stoch[1])


def test_act_matches_the_training_head_bitwise():
    agent, _ = small_agent(seed=11)
    rng = np.random.default_rng()
    rng.bit_generator.state = agent.rng.bit_generator.state
    obs_rng = np.random.default_rng(6)
    for _ in range(50):
        obs = obs_rng.standard_normal(5) * 10.0 ** obs_rng.uniform(-3, 3)
        want = gaussian_policy_forward(agent.actor, obs,
                                       np.zeros((1, 2)))["action"][0]
        assert agent.act(obs, deterministic=True).tobytes() == want.tobytes()
        xi = rng.standard_normal((1, 2))
        want = gaussian_policy_forward(agent.actor, obs, xi)["action"][0]
        assert agent.act(obs).tobytes() == want.tobytes()
    assert agent.rng.bit_generator.state == rng.bit_generator.state


def test_update_changes_parameters_and_targets_lag():
    agent, _ = small_agent(seed=3)
    rng = np.random.default_rng(12)
    batch = make_batch(rng, 16, 5, 2)
    before_actor = agent.actor.flat.copy()
    before_target = agent.tq1.flat.copy()
    agent.update(batch)
    assert not np.array_equal(agent.actor.flat.copy(), before_actor)
    # Polyak-averaged target moves, but only slightly
    moved = np.linalg.norm(agent.tq1.flat.copy() - before_target)
    online = np.linalg.norm(agent.q1.flat.copy() - before_target)
    assert 0.0 < moved < online


def test_clone_is_deep_and_rng_synchronized():
    agent, _ = small_agent(seed=4)
    other = agent.clone()
    assert np.array_equal(agent.actor.flat.copy(), other.actor.flat.copy())
    # same rng state: identical next stochastic action
    obs = np.zeros(5)
    assert np.array_equal(agent.act(obs), other.act(obs))
    other.actor.weights[0][0, 0] += 1.0
    assert not np.array_equal(agent.actor.flat.copy(),
                              other.actor.flat.copy())


def test_checkpoint_round_trip(tmp_path):
    # each network at its own rate: the restored ADAM must step each part
    # at the rate the unsaved one does
    agent, cfg = small_agent(seed=5, **DISTINCT_RATES)
    rng = np.random.default_rng(13)
    agent.update(make_batch(rng, 16, 5, 2))
    agent.act(np.zeros(5))
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    loaded = SacAgent.load(path, cfg)
    assert loaded.flat.tobytes() == agent.flat.tobytes()
    assert loaded.adam.t == agent.adam.t == 1
    assert loaded.adam.m.tobytes() == agent.adam.m.tobytes()
    assert loaded.adam.v.tobytes() == agent.adam.v.tobytes()
    assert loaded.rng.bit_generator.state == agent.rng.bit_generator.state
    obs = np.ones(5)
    assert loaded.act(obs).tobytes() == agent.act(obs).tobytes()
    batch = make_batch(rng, 16, 5, 2)
    agent.update(batch)
    loaded.update(batch)
    assert loaded.flat.tobytes() == agent.flat.tobytes()
    assert loaded.adam.m.tobytes() == agent.adam.m.tobytes()
    assert loaded.adam.v.tobytes() == agent.adam.v.tobytes()


def test_loaded_agent_draws_the_same_next_action(tmp_path):
    agent, cfg = small_agent(seed=8)
    obs = np.zeros(5)
    agent.act(obs)
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    loaded = SacAgent.load(path, cfg)
    assert np.array_equal(loaded.act(obs), agent.act(obs))


def test_checkpoint_refuses_other_shapes_and_versions(tmp_path):
    agent, cfg = small_agent(seed=9)
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    with pytest.raises(ValueError, match="hidden_sizes"):
        SacAgent.load(path, cfg.replace(hidden_sizes=(32,)))
    with pytest.raises(ValueError, match="obs_dim"):
        SacAgent.load(path, cfg, obs_dim=6, act_dim=2)
    with pytest.raises(ValueError, match="act_dim"):
        SacAgent.load(path, cfg, obs_dim=5, act_dim=3)
    SacAgent.load(path, cfg, obs_dim=5, act_dim=2)
    with np.load(path) as f:
        arrays = dict(f)
    header = json.loads(bytes(arrays["header"]).decode())
    for version in (1, 3):
        header["version"] = version
        arrays["header"] = np.frombuffer(json.dumps(header).encode(),
                                         dtype=np.uint8)
        old = str(tmp_path / f"v{version}.npz")
        np.savez(old, **arrays)
        with pytest.raises(ValueError, match=f"unsupported checkpoint "
                                             f"version {version}"):
            SacAgent.load(old, cfg)


def test_checkpoint_refuses_another_config(tmp_path):
    agent, cfg = small_agent(seed=9)
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    other = cfg.replace(gamma=0.5, n_users=3)
    with pytest.raises(ValueError, match=f"config_hash {cfg.config_hash()} "
                       f".* {other.config_hash()}"):
        SacAgent.load(path, other)


def test_clone_builds_fresh_optimizers():
    agent, cfg = small_agent(seed=6, **DISTINCT_RATES)
    agent.update(make_batch(np.random.default_rng(2), 16, 5, 2))
    other = agent.clone(lr=0.25)
    for name in ("actor", "q1", "q2", "tq1", "tq2"):
        assert np.array_equal(getattr(agent, name).flat.copy(),
                              getattr(other, name).flat.copy())
    mine, fresh = agent.adam, other.adam
    assert mine.t == 1 and np.any(mine.m != 0.0)
    assert fresh.t == 0 and fresh.lr == 0.25
    assert not np.any(fresh.m) and not np.any(fresh.v)
    n_actor, n_critic = agent.actor.flat.size, agent.q1.flat.size
    assert other.clone().adam.lr == ((cfg.lr_actor, n_actor),
                                     (cfg.lr_critic1, n_critic),
                                     (cfg.lr_critic2, n_critic))


def owned_arrays(agent):
    """The arrays reachable from the agent, its networks and its ADAM that
    own their memory (views are left out), by id."""
    found = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            if value.base is None:
                found[id(value)] = value
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, (Mlp, Adam)):
            walk(list(vars(value).values()))

    walk(list(vars(agent).values()))
    return found


def test_every_agent_owns_its_vector_and_four_adam_arrays_only(tmp_path):
    # one parameter vector, ADAM's moments and its two step scratches, and
    # no other array: the per-network rates are scalars
    agent, cfg = small_agent(seed=11, **DISTINCT_RATES)
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    env = VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(3)))
    meta = MetaSac(cfg, env.obs_dim, env.action_dim, seed=3)
    adapted = meta.meta_adapt(env.task, 4, seed=2)
    assert adapted.adam.t > 0
    for each in (agent, agent.clone(), agent.clone(lr=0.25),
                 SacAgent.load(path, cfg), adapted):
        adam = each.adam
        assert owned_arrays(each).keys() == {
            id(a) for a in (each.flat, adam.m, adam.v, adam._a, adam._b)}
        for a in (adam.m, adam.v, adam._a, adam._b):
            assert a.shape == each.trained.shape


def test_act_runs_the_actor_forward_once(monkeypatch):
    agent, _ = small_agent(seed=10)
    calls = []
    forward = Mlp.forward

    def counting(net, x):
        calls.append(net)
        return forward(net, x)

    monkeypatch.setattr(Mlp, "forward", counting)
    agent.act(np.zeros(5))
    agent.act(np.zeros(5), deterministic=True)
    assert calls == [agent.actor, agent.actor]


def test_rollout_fills_buffer(env):
    buf = ReplayBuffer(100, env.obs_dim, env.action_dim)
    policy = RandomPolicy(env, seed=0)
    total = rollout(env, policy, 1, buf.store)
    trace = env.trace
    assert len(buf) == env.cfg.n_slots
    assert len(trace.rows) == env.cfg.n_slots
    assert total == pytest.approx(sum(r["reward"] for r in trace.rows))


def test_train_sac_runs_and_is_deterministic(make_env):
    env1 = make_env()
    env2 = make_env()
    cfg = env1.cfg
    a1, _, r1 = train_sac(env1, cfg, seed=7, episodes=3)
    a2, _, r2 = train_sac(env2, cfg, seed=7, episodes=3)
    assert r1 == r2
    assert np.array_equal(a1.actor.flat.copy(), a2.actor.flat.copy())
    assert len(r1) == 3


def test_apply_grads_refuses_non_finite_gradients_untouched():
    agent, _ = small_agent(seed=6)
    nets = ("actor", "q1", "q2", "tq1", "tq2")
    before = {n: getattr(agent, n).flat.copy() for n in nets}
    n_actor, n_q = agent.actor.flat.size, agent.q1.flat.size
    # the first and last entries of each network's part, and two bad parts
    cases = [([0], "actor"), ([n_actor - 1], "actor"), ([n_actor], "q1"),
             ([n_actor + n_q - 1], "q1"), ([n_actor + n_q], "q2"),
             ([n_actor + 2 * n_q - 1], "q2"), ([n_actor + 3, 3], "actor"),
             ([n_actor + n_q + 3, n_actor + 3], "q1")]
    for entries, name in cases:
        for bad in (np.nan, np.inf):
            g = np.zeros_like(agent.trained)
            g[entries] = bad
            with pytest.raises(ValueError,
                               match=f"non-finite gradient for network "
                                     f"{name}$"):
                agent.apply_grads(g)
    for n in nets:
        assert np.array_equal(getattr(agent, n).flat.copy(), before[n])
    assert agent.adam.t == 0


def test_update_refuses_a_nan_reward():
    agent, _ = small_agent(seed=7)
    batch = make_batch(np.random.default_rng(14), 16, 5, 2)
    batch["rew"][5] = np.nan
    # the reward reaches the critics' targets, not the actor's loss
    with pytest.raises(ValueError, match="network q1"):
        agent.update(batch)
