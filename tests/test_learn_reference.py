"""The learning loops and the SAC step against their earlier hand-written
forms.

`train_sac`, `MetaSac.meta_adapt` and `MetaSac.meta_train` once each wrote
out their own reset/step/store loop; they now run one loop, `sac.collect`
(the first two through `sac.learn_online`), which takes uniform actions
until its buffer has taken `warmup_steps` rows and then lets the agent
act. The earlier loops are kept below (renamed `reference_*`, methods as
functions of the `MetaSac`), and every test asserts exact equality with
them: returns, network parameters, replay buffer rows and the RNG states,
on a warm-up that spans several episodes. The first two are verbatim.
`reference_meta_train` keeps its explicit step loop but draws from the
keyed per-(iteration, task) streams `meta_train` took up when its tasks
began to run in parallel.

`reference_train_sac` counts its warm-up in steps, which are the rows its
fresh buffer has taken, so it agrees with `collect` on every config; the
train_sac test has a case with `warmup_steps` above `buffer_capacity`
(`warmup-past-buffer`). `reference_meta_train` counts stored rows, which
equal the rows taken until the ring wraps, so it agrees wherever
`warmup_steps` is at most `buffer_capacity`, the configs meta-training
accepted when it counted stored rows.

`SacAgent.apply_grads` once stepped each trained network with an ADAM of
its own, at its own learning rate, and Polyak-averaged each target apart;
it now makes one step of the agent's one parameter vector. The earlier
step is kept as `reference_apply_grads`, with the optimizers it ran on
(`reference_reset_optimizers`), and the train_sac and meta_adapt tests run
their reference loops on it, also with a different rate for each network
(`DISTINCT_RATES`).
"""

import numpy as np
import pytest

from uavlc import MetaSac, ReplayBuffer, SacAgent, sample_task, train_sac
from uavlc.env import VlcUavEnv
from uavlc.nets import Adam, soft_update
from uavlc.sac import learn_online

from conftest import small_config

# ---------------------------------------------------------------------------
# the earlier loops and step, verbatim
# ---------------------------------------------------------------------------

OPTIMIZERS = ("adam_actor", "adam_q1", "adam_q2")


def reference_reset_optimizers(self, lr: float | None = None):
    """Fresh ADAM state; one learning rate for all three, or the cfg's."""
    cfg = self.cfg
    rates = ((cfg.lr_actor, cfg.lr_critic1, cfg.lr_critic2)
             if lr is None else (lr, lr, lr))
    for name, net, rate in zip(OPTIMIZERS, (self.actor, self.q1, self.q2),
                               rates):
        setattr(self, name, Adam(net.flat, rate, beta1=cfg.adam_beta1,
                                 beta2=cfg.adam_beta2, eps=cfg.adam_eps))


def reference_apply_grads(self, ga, g1, g2):
    """One ADAM step of each network, then the Polyak target update.

    Raises ValueError naming the network, before any network changes,
    when a gradient holds NaN or inf.
    """
    for name, g in (("actor", ga), ("q1", g1), ("q2", g2)):
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for network {name}")
    self.adam_q1.step(self.q1.flat, g1)
    self.adam_q2.step(self.q2.flat, g2)
    self.adam_actor.step(self.actor.flat, ga)
    soft_update(self.tq1.flat, self.q1.flat, self.cfg.polyak)
    soft_update(self.tq2.flat, self.q2.flat, self.cfg.polyak)


def reference_update(self, batch):
    """`SacAgent.update` on `reference_apply_grads`."""
    (g1, _), (g2, _) = self.critic_grads(batch)
    ga, _ = self.actor_grads(batch)
    reference_apply_grads(self, ga, g1, g2)


def reference_train_sac(env, cfg, seed: int, episodes: int,
                        agent=None, buffer=None):
    """Plain single-task SAC training loop."""
    if agent is None:
        agent = SacAgent(env.obs_dim, env.action_dim, cfg, seed=seed)
    if buffer is None:
        buffer = ReplayBuffer(cfg.buffer_capacity, env.obs_dim,
                              env.action_dim)
    rng = np.random.default_rng([seed, 1])
    steps = 0
    returns = []
    for ep in range(episodes):
        obs = env.reset(seed=int(rng.integers(2**31)))
        total = 0.0
        while not env.done:
            if steps < cfg.warmup_steps:
                raw = rng.uniform(-1.0, 1.0, env.action_dim)
            else:
                raw = agent.act(obs)
            tr = env.step(raw)
            buffer.add(tr.obs, tr.raw_action, tr.reward, tr.next_obs, tr.done)
            obs = tr.next_obs
            total += tr.reward
            steps += 1
            if len(buffer) >= cfg.batch_size and steps >= cfg.warmup_steps:
                agent.update(buffer.sample(cfg.batch_size, agent.rng))
        returns.append(total)
    return agent, buffer, returns


def reference_meta_adapt(self, task, episodes: int, seed: int = 0):
    """Fine-tune a copy of the meta-initialization on a fresh task."""
    cfg = self.cfg
    agent = self.agent.clone()
    agent.rng = np.random.default_rng([seed, 11])
    if episodes == 0:
        return agent
    env = VlcUavEnv(cfg, task)
    d_ada = ReplayBuffer(cfg.buffer_capacity, env.obs_dim,
                         env.action_dim)
    rng = np.random.default_rng([seed, 13])
    for _ in range(episodes):
        obs = env.reset(seed=int(rng.integers(2**31)))
        while not env.done:
            raw = agent.act(obs)
            tr = env.step(raw)
            d_ada.add(tr.obs, tr.raw_action, tr.reward, tr.next_obs,
                      tr.done)
            obs = tr.next_obs
            if len(d_ada) >= cfg.batch_size:
                agent.update(d_ada.sample(cfg.batch_size, agent.rng))
    return agent


def reference_meta_train(self, task_sampler, iterations: int):
    """Alternate per-task rollouts, inner adaptation, one outer step.

    Written out step by step on the keyed streams: unit (i, k), task k of
    global iteration i, draws from [seed, 7, i, k] and its agent from
    [seed, 9, i, k]; the query gradients are summed in task order.
    """
    cfg = self.cfg
    tasks = [task_sampler() for _ in range(cfg.meta_task_count)]
    self.task_seeds = [t.seed for t in tasks]
    envs = [VlcUavEnv(cfg, t) for t in tasks]
    buffers = [ReplayBuffer(cfg.buffer_capacity, envs[0].obs_dim,
                            envs[0].action_dim)
               for _ in tasks]
    history = []
    for it in range(iterations):
        sums = None
        losses = {"actor": 0.0, "critic1": 0.0, "critic2": 0.0}
        for k, (env, buf) in enumerate(zip(envs, buffers)):
            rng = np.random.default_rng([self.seed, 7, self.iteration, k])
            adapted = self.agent.clone(lr=cfg.lr_inner)
            adapted.rng = np.random.default_rng(
                [self.seed, 9, self.iteration, k])
            for _ in range(cfg.episodes_per_task):
                obs = env.reset(seed=int(rng.integers(2**31)))
                while not env.done:
                    if buf.size < cfg.warmup_steps:
                        raw = rng.uniform(-1.0, 1.0, env.action_dim)
                    else:
                        raw = adapted.act(obs)
                    tr = env.step(raw)
                    buf.add(tr.obs, tr.raw_action, tr.reward,
                            tr.next_obs, tr.done)
                    obs = tr.next_obs
            support_idx, query_idx = buf.split_indices(
                cfg.support_fraction, rng)
            for _ in range(cfg.inner_steps):
                s_idx = rng.choice(support_idx, size=cfg.batch_size,
                                   replace=len(support_idx) < cfg.batch_size)
                adapted.update(buf.get(s_idx))
            q_idx = rng.choice(query_idx, size=cfg.batch_size,
                               replace=len(query_idx) < cfg.batch_size)
            batch = buf.get(q_idx)
            (g1, l1), (g2, l2) = adapted.critic_grads(batch)
            ga, la = adapted.actor_grads(batch)
            if sums is None:
                sums = [ga, g1, g2]
            else:
                sums[0] += ga
                sums[1] += g1
                sums[2] += g2
            losses["actor"] += la
            losses["critic1"] += l1
            losses["critic2"] += l2
        self.agent.apply_grads(np.concatenate(sums))
        losses["iteration"] = it
        history.append(losses)
        self.iteration += 1
    return history


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

# 5 slots per episode: the 12-step warm-up ends inside the third episode,
# and with an 8-row batch it is the warm-up that holds the first update back
def learn_config(**overrides):
    return small_config(**{"warmup_steps": 12, "batch_size": 8, **overrides})


def make_env(cfg, seed=42):
    return VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(seed)))


def optimizer_state(agent):
    """(t, m, v) of the agent's ADAM; per-network ones (see
    `reference_reset_optimizers`) joined in the order of `agent.trained`."""
    if not hasattr(agent, "adam_actor"):
        return agent.adam.t, agent.adam.m, agent.adam.v
    adams = [getattr(agent, name) for name in OPTIMIZERS]
    assert adams[0].t == adams[1].t == adams[2].t
    return (adams[0].t, np.concatenate([adam.m for adam in adams]),
            np.concatenate([adam.v for adam in adams]))


def assert_same_agent(a, b):
    assert np.array_equal(a.flat, b.flat)
    (t_a, m_a, v_a), (t_b, m_b, v_b) = optimizer_state(a), optimizer_state(b)
    assert t_a == t_b
    assert np.array_equal(m_a, m_b)
    assert np.array_equal(v_a, v_b)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def assert_same_buffer(a, b):
    assert (a.size, a.taken) == (b.size, b.taken)
    for key in ("obs", "act", "rew", "next_obs", "done"):
        assert np.array_equal(getattr(a, key), getattr(b, key))


# each network at its own learning rate, and a Polyak coefficient other than
# the default: a rate applied to another network's part fails the test
DISTINCT_RATES = dict(lr_actor=2e-3, lr_critic1=7e-4, lr_critic2=1.3e-3,
                      polyak=0.05)


# a warm-up of 25 steps into a 20-row buffer: the ring wraps before the
# agent first acts, at step 25 of the run's 30
WARMUP_PAST_BUFFER = dict(warmup_steps=25, buffer_capacity=20)


@pytest.mark.parametrize("seed, overrides",
                         [(0, {}), (7, {}), (7, DISTINCT_RATES),
                          (7, WARMUP_PAST_BUFFER)],
                         ids=["0", "7", "distinct-rates",
                              "warmup-past-buffer"])
def test_train_sac_matches_reference_bitwise(seed, overrides, monkeypatch):
    cfg = learn_config(**overrides)
    env = make_env(cfg)
    agent, buf, returns = train_sac(env, cfg, seed=seed, episodes=6)
    ref_agent = SacAgent(env.obs_dim, env.action_dim, cfg, seed=seed)
    reference_reset_optimizers(ref_agent)
    monkeypatch.setattr(SacAgent, "update", reference_update)
    ref_agent, ref_buf, ref_returns = reference_train_sac(
        make_env(cfg), cfg, seed=seed, episodes=6, agent=ref_agent)
    assert returns == ref_returns
    assert_same_agent(agent, ref_agent)
    assert_same_buffer(buf, ref_buf)
    assert ref_agent.adam_actor.t > 0     # the comparison covers updates


@pytest.mark.parametrize("episodes, overrides",
                         [(0, {}), (1, {}), (5, {}), (5, DISTINCT_RATES)],
                         ids=["0", "1", "5", "5-distinct-rates"])
def test_meta_adapt_matches_reference_bitwise(episodes, overrides,
                                              monkeypatch):
    cfg = learn_config(**overrides)
    env = make_env(cfg)
    meta = MetaSac(cfg, env.obs_dim, env.action_dim, seed=3)
    task = sample_task(cfg, np.random.default_rng(4))
    adapted = meta.meta_adapt(task, episodes, seed=9)
    # the copy reference_meta_adapt makes steps on the per-network optimizers
    clone = SacAgent.clone

    def reference_clone(self, lr=None):
        other = clone(self, lr)
        reference_reset_optimizers(other, lr)
        return other

    monkeypatch.setattr(SacAgent, "clone", reference_clone)
    monkeypatch.setattr(SacAgent, "update", reference_update)
    ref = reference_meta_adapt(meta, task, episodes, seed=9)
    assert_same_agent(adapted, ref)
    if episodes == 5:
        assert ref.adam_actor.t > 0     # the comparison covers updates


def test_learn_online_without_warmup_matches_reference_bitwise():
    # meta_adapt keeps its buffer to itself; its loop is train_sac's with
    # no warm-up, so the buffer rows are compared on that loop
    cfg = learn_config()
    env = make_env(cfg)
    base = SacAgent(env.obs_dim, env.action_dim, cfg, seed=3)
    agent, ref_agent = base.clone(), base.clone()
    buf, returns = learn_online(env, agent, np.random.default_rng([9, 1]),
                                5, 0)
    _, ref_buf, ref_returns = reference_train_sac(
        make_env(cfg), cfg.replace(warmup_steps=0), seed=9, episodes=5,
        agent=ref_agent)
    assert returns == ref_returns
    assert_same_agent(agent, ref_agent)
    assert_same_buffer(buf, ref_buf)


def test_meta_train_matches_reference_bitwise():
    # three tasks: with two workers, one owns two of them
    cfg = learn_config(meta_task_count=3, episodes_per_task=2)
    probe = make_env(cfg)
    ref = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=5)
    ref_history = reference_meta_train(
        ref, lambda rng=np.random.default_rng(6): sample_task(cfg, rng),
        iterations=3)
    assert ref.agent.adam.t == 3    # one outer step per iteration
    for workers in (1, 2):
        meta = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=5)
        task_rng = np.random.default_rng(6)
        history = meta.meta_train(lambda: sample_task(cfg, task_rng),
                                  iterations=3, workers=workers)
        assert history == ref_history
        assert meta.task_seeds == ref.task_seeds
        assert meta.iteration == ref.iteration == 3
        assert_same_agent(meta.agent, ref.agent)
