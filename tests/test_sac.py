"""SAC core: replay buffer, exact gradients, checkpoints, training loop."""

import json

import numpy as np
import pytest

from uavlc import ReplayBuffer, SacAgent, run_episode, train_sac
from uavlc.baselines import RandomPolicy
from uavlc.nets import Mlp
from uavlc.sac import gaussian_policy_forward

from conftest import small_config


def make_batch(rng, n, obs_dim, act_dim):
    return {"obs": rng.standard_normal((n, obs_dim)),
            "act": np.tanh(rng.standard_normal((n, act_dim))),
            "rew": rng.standard_normal(n),
            "next_obs": rng.standard_normal((n, obs_dim)),
            "done": rng.integers(0, 2, n).astype(float)}


def small_agent(seed, obs_dim=5, act_dim=2):
    cfg = small_config(hidden_sizes=(16,))
    return SacAgent(obs_dim, act_dim, cfg, seed=seed), cfg


def critic_fd(agent, batch, xi, which, eps=1e-6):
    y = agent.critic_target(batch["rew"], batch["done"], batch["next_obs"],
                            xi=xi)
    qin = np.concatenate([batch["obs"], batch["act"]], axis=1)
    net = agent.q1 if which == 0 else agent.q2

    def loss_at(flat):
        probe = net.clone()
        probe.set_flat(flat)
        pred = probe(qin)[:, 0]
        return float(np.mean((pred - y) ** 2))

    flat = net.get_flat()
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
        probe.set_flat(flat)
        fw = gaussian_policy_forward(probe, obs, xi)
        qin = np.concatenate([obs, fw["action"]], axis=1)
        q_min = np.minimum(agent.q1(qin)[:, 0], agent.q2(qin)[:, 0])
        return float(np.mean(cfg.entropy_weight * fw["logp"] - q_min))

    flat = agent.actor.get_flat()
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


def test_policy_actions_bounded_and_deterministic_mode():
    agent, _ = small_agent(seed=2)
    obs = np.random.default_rng(5).standard_normal(5)
    a1 = agent.act(obs, deterministic=True)
    a2 = agent.act(obs, deterministic=True)
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1) < 1.0)
    stoch = [agent.act(obs) for _ in range(3)]
    assert not np.array_equal(stoch[0], stoch[1])


def test_update_changes_parameters_and_targets_lag():
    agent, _ = small_agent(seed=3)
    rng = np.random.default_rng(12)
    batch = make_batch(rng, 16, 5, 2)
    before_actor = agent.actor.get_flat().copy()
    before_target = agent.tq1.get_flat().copy()
    agent.update(batch)
    assert not np.array_equal(agent.actor.get_flat(), before_actor)
    # Polyak-averaged target moves, but only slightly
    moved = np.linalg.norm(agent.tq1.get_flat() - before_target)
    online = np.linalg.norm(agent.q1.get_flat() - before_target)
    assert 0.0 < moved < online


def test_clone_is_deep_and_rng_synchronized():
    agent, _ = small_agent(seed=4)
    other = agent.clone()
    assert np.array_equal(agent.actor.get_flat(), other.actor.get_flat())
    # same rng state: identical next stochastic action
    obs = np.zeros(5)
    assert np.array_equal(agent.act(obs), other.act(obs))
    other.actor.weights[0][0, 0] += 1.0
    assert not np.array_equal(agent.actor.get_flat(),
                              other.actor.get_flat())


def test_checkpoint_round_trip(tmp_path):
    agent, cfg = small_agent(seed=5)
    rng = np.random.default_rng(13)
    agent.update(make_batch(rng, 16, 5, 2))
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    loaded = SacAgent.load(path, cfg)
    for name in ("actor", "q1", "q2", "tq1", "tq2"):
        assert np.array_equal(getattr(agent, name).get_flat(),
                              getattr(loaded, name).get_flat())
    assert loaded.adam_actor.t == agent.adam_actor.t
    for m1, m2 in zip(agent.adam_q1.m, loaded.adam_q1.m):
        assert np.array_equal(m1, m2)


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
    header["version"] = 1
    arrays["header"] = np.frombuffer(json.dumps(header).encode(),
                                     dtype=np.uint8)
    old = str(tmp_path / "v1.npz")
    np.savez(old, **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
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
    agent, cfg = small_agent(seed=6)
    agent.update(make_batch(np.random.default_rng(2), 16, 5, 2))
    other = agent.clone(lr=0.25)
    for name in ("actor", "q1", "q2", "tq1", "tq2"):
        assert np.array_equal(getattr(agent, name).get_flat(),
                              getattr(other, name).get_flat())
    for name in ("adam_actor", "adam_q1", "adam_q2"):
        mine, fresh = getattr(agent, name), getattr(other, name)
        assert mine.t == 1 and np.any(mine.m != 0.0)
        assert fresh.t == 0 and fresh.lr == 0.25
        assert not np.any(fresh.m) and not np.any(fresh.v)
    assert other.clone().adam_q2.lr == cfg.lr_critic2


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


def test_run_episode_fills_buffer(env):
    buf = ReplayBuffer(100, env.obs_dim, env.action_dim)
    policy = RandomPolicy(env, seed=0)
    total, trace = run_episode(env, policy, buffer=buf, episode_seed=1)
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
    assert np.array_equal(a1.actor.get_flat(), a2.actor.get_flat())
    assert len(r1) == 3


def test_apply_grads_refuses_non_finite_gradients_untouched():
    agent, _ = small_agent(seed=6)
    nets = ("actor", "q1", "q2", "tq1", "tq2")
    before = {n: getattr(agent, n).get_flat().copy() for n in nets}
    grads = [np.zeros_like(agent.actor.flat), np.zeros_like(agent.q1.flat),
             np.zeros_like(agent.q2.flat)]
    for i, name in enumerate(("actor", "q1", "q2")):
        for bad in (np.nan, np.inf):
            g = [x.copy() for x in grads]
            g[i][3] = bad
            with pytest.raises(ValueError,
                               match=f"non-finite gradient for network "
                                     f"{name}"):
                agent.apply_grads(*g)
    for n in nets:
        assert np.array_equal(getattr(agent, n).get_flat(), before[n])
    assert agent.adam_actor.t == agent.adam_q1.t == agent.adam_q2.t == 0


def test_update_refuses_a_nan_reward():
    agent, _ = small_agent(seed=7)
    batch = make_batch(np.random.default_rng(14), 16, 5, 2)
    batch["rew"][5] = np.nan
    # the reward reaches the critics' targets, not the actor's loss
    with pytest.raises(ValueError, match="network q1"):
        agent.update(batch)
