"""Meta-learning layer over the SAC core.

Two-phase procedure: meta-training alternates per-task inner adaptation on
support data with one first-order outer step on query data evaluated at the
adapted parameters; meta-adaptation then fine-tunes the shared
initialization on a fresh task's buffer. Inner steps use ADAM with a
separate inner learning rate; the outer step reuses the global optimizers.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .env import Task, VlcUavEnv
from .sac import ReplayBuffer, SacAgent, read_checkpoint


class MetaSac:
    def __init__(self, cfg: SystemConfig, obs_dim: int, act_dim: int,
                 seed: int = 0):
        self.cfg = cfg
        self.agent = SacAgent(obs_dim, act_dim, cfg, seed=seed)
        self.rng = np.random.default_rng([seed, 7])
        self.task_seeds: list[int] = []
        self.iteration = 0

    # -- inner loop --

    def inner_adapt(self, buffer: ReplayBuffer, support_idx: np.ndarray,
                    steps: int) -> SacAgent:
        """Adapt a copy of the global parameters on support data only."""
        adapted = self.agent.clone(lr=self.cfg.lr_inner)
        for _ in range(steps):
            idx = self.rng.choice(support_idx, size=self.cfg.batch_size,
                                  replace=len(support_idx) < self.cfg.batch_size)
            adapted.update(buffer.get(idx))
        return adapted

    # -- outer loop --

    def outer_update(self, adapted_agents: list[SacAgent],
                     query_batches: list[dict]) -> dict:
        """One global ADAM step on the summed query losses (first order)."""
        if not adapted_agents:
            raise ValueError("need at least one adapted task")
        sums = None
        losses = {"actor": 0.0, "critic1": 0.0, "critic2": 0.0}
        for adapted, batch in zip(adapted_agents, query_batches):
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
        self.agent.apply_grads(*sums)
        return losses

    # -- phases --

    def meta_train(self, task_sampler, iterations: int,
                   checkpoint_path: str | None = None) -> list[dict]:
        """Alternate per-task rollouts, inner adaptation, one outer step."""
        cfg = self.cfg
        tasks = [task_sampler() for _ in range(cfg.meta_task_count)]
        self.task_seeds = [t.seed for t in tasks]
        envs = [VlcUavEnv(cfg, t) for t in tasks]
        buffers = [ReplayBuffer(cfg.buffer_capacity, envs[0].obs_dim,
                                envs[0].action_dim)
                   for _ in tasks]
        history = []
        for it in range(iterations):
            adapted_agents = []
            query_batches = []
            for env, buf in zip(envs, buffers):
                for _ in range(cfg.episodes_per_task):
                    obs = env.reset(seed=int(self.rng.integers(2**31)))
                    while not env.done:
                        if buf.size < cfg.warmup_steps:
                            raw = self.rng.uniform(-1.0, 1.0, env.action_dim)
                        else:
                            raw = self.agent.act(obs)
                        tr = env.step(raw)
                        buf.add(tr.obs, tr.raw_action, tr.reward,
                                tr.next_obs, tr.done)
                        obs = tr.next_obs
                support_idx, query_idx = buf.split_indices(
                    cfg.support_fraction, self.rng)
                adapted = self.inner_adapt(buf, support_idx, cfg.inner_steps)
                q_idx = self.rng.choice(
                    query_idx, size=cfg.batch_size,
                    replace=len(query_idx) < cfg.batch_size)
                adapted_agents.append(adapted)
                query_batches.append(buf.get(q_idx))
            losses = self.outer_update(adapted_agents, query_batches)
            losses["iteration"] = it
            history.append(losses)
            self.iteration += 1
        if checkpoint_path is not None:
            self.save(checkpoint_path)
        return history

    def meta_adapt(self, task: Task, episodes: int,
                   seed: int = 0) -> SacAgent:
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

    # -- checkpoints --

    def save(self, path: str):
        self.agent.save(path, extra={"task_seeds": self.task_seeds,
                                     "iteration": self.iteration,
                                     "rng": self.rng.bit_generator.state})

    @classmethod
    def load(cls, path: str, cfg: SystemConfig) -> "MetaSac":
        arrays, header = read_checkpoint(path)
        meta = cls.__new__(cls)
        meta.cfg = cfg
        meta.agent = SacAgent.restore(arrays, header, cfg)
        extra = header.get("extra", {})
        meta.rng = np.random.default_rng(0)
        if "rng" in extra:
            meta.rng.bit_generator.state = extra["rng"]
        meta.task_seeds = list(extra.get("task_seeds", []))
        meta.iteration = int(extra.get("iteration", 0))
        return meta
