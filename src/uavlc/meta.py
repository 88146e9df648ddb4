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
from .env import Task, VlcUavEnv, rollout
from .sac import (ReplayBuffer, SacAgent, learn_online, read_checkpoint,
                  require_split)


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
            adapted.update(buffer.sample(self.cfg.batch_size, self.rng,
                                         support_idx))
        return adapted

    # -- outer loop --

    def outer_update(self, tasks) -> dict:
        """One global ADAM step on the summed query losses (first order).

        `tasks` yields (adapted agent, query batch) pairs. Each pair's query
        gradients and losses join running sums in task order, and the pair
        is dropped before the next one is drawn, so a generator that adapts
        on demand keeps one adapted agent alive at a time.
        """
        sums = None
        losses = {"actor": 0.0, "critic1": 0.0, "critic2": 0.0}
        for adapted, batch in tasks:
            (g1, l1), (g2, l2) = adapted.critic_grads(batch)
            ga, la = adapted.actor_grads(batch)
            del adapted, batch
            if sums is None:
                sums = [ga, g1, g2]
            else:
                sums[0] += ga
                sums[1] += g1
                sums[2] += g2
            losses["actor"] += la
            losses["critic1"] += l1
            losses["critic2"] += l2
        if sums is None:
            raise ValueError("need at least one adapted task")
        self.agent.apply_grads(*sums)
        return losses

    # -- phases --

    def meta_train(self, task_sampler, iterations: int) -> list[dict]:
        """Alternate per-task rollouts, inner adaptation, one outer step.

        Refuses, before any rollout, a config whose first iteration leaves
        a task buffer too small to split into support and query sets.
        """
        cfg = self.cfg
        require_split(min(cfg.buffer_capacity,
                          cfg.n_slots * cfg.episodes_per_task))
        tasks = [task_sampler() for _ in range(cfg.meta_task_count)]
        self.task_seeds = [t.seed for t in tasks]
        envs = [VlcUavEnv(cfg, t) for t in tasks]
        buffers = [ReplayBuffer(cfg.buffer_capacity, envs[0].obs_dim,
                                envs[0].action_dim)
                   for _ in tasks]
        history = []
        for it in range(iterations):
            losses = self.outer_update(self._adapted_tasks(envs, buffers))
            losses["iteration"] = it
            history.append(losses)
            self.iteration += 1
        return history

    def _adapted_tasks(self, envs, buffers):
        """Per task, in order: roll its episodes into its buffer, adapt on
        the support rows and draw a query batch; yields (adapted, batch).

        Each adapted agent draws only from its own copy of the RNG, so
        taking its query gradients before the next task's rollouts, rather
        than after all of them, changes no number.
        """
        cfg = self.cfg
        for env, buf in zip(envs, buffers):
            def policy(obs):
                # buf.size: the warm-up spans iterations, as buf does
                if buf.size < cfg.warmup_steps:
                    return self.rng.uniform(-1.0, 1.0, env.action_dim)
                return self.agent.act(obs)

            for _ in range(cfg.episodes_per_task):
                rollout(env, policy, int(self.rng.integers(2**31)),
                        buf.store)
            support_idx, query_idx = buf.split_indices(
                cfg.support_fraction, self.rng)
            adapted = self.inner_adapt(buf, support_idx, cfg.inner_steps)
            yield adapted, buf.sample(cfg.batch_size, self.rng, query_idx)
            del adapted

    def meta_adapt(self, task: Task, episodes: int,
                   seed: int = 0) -> SacAgent:
        """Fine-tune a copy of the meta-initialization on a fresh task."""
        agent = self.agent.clone()
        agent.rng = np.random.default_rng([seed, 11])
        learn_online(VlcUavEnv(self.cfg, task), agent,
                     np.random.default_rng([seed, 13]), episodes, 0)
        return agent

    # -- checkpoints --

    def save(self, path: str):
        self.agent.save(path, extra={"task_seeds": self.task_seeds,
                                     "iteration": self.iteration,
                                     "rng": self.rng.bit_generator.state})

    @classmethod
    def load(cls, path: str, cfg: SystemConfig) -> "MetaSac":
        """The meta-learner `save` wrote; refuses a checkpoint without its
        state, such as a plain SAC agent's."""
        arrays, header = read_checkpoint(path)
        extra = header.get("extra", {})
        missing = [k for k in ("task_seeds", "iteration", "rng")
                   if k not in extra]
        if missing:
            raise ValueError(f"{path} holds no meta-learner state (no "
                             f"{', '.join(missing)}); it is not a "
                             f"meta-training checkpoint")
        meta = cls.__new__(cls)
        meta.cfg = cfg
        meta.agent = SacAgent.restore(arrays, header, cfg)
        meta.rng = np.random.default_rng()
        meta.rng.bit_generator.state = extra["rng"]
        meta.task_seeds = list(extra["task_seeds"])
        meta.iteration = int(extra["iteration"])
        return meta
