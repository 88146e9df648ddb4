"""Meta-learning layer over the SAC core.

Two-phase procedure: meta-training alternates per-task inner adaptation on
support data with one first-order outer step on query data evaluated at the
adapted parameters; meta-adaptation then fine-tunes the shared
initialization on a fresh task's buffer. Inner steps use ADAM with a
separate inner learning rate; the outer step reuses the global optimizer.

Each meta-iteration's tasks are independent units. Unit (i, k), task k of
global iteration i, draws from two generators keyed by (seed, i, k): one
for its episode seeds, warm-up actions, support/query split and batches,
one for its agent's noise. Its agent is a clone of the global agent, which
acts in the rollouts and then adapts in place, so a unit reads only the
global parameters and its own task's env and buffer (both kept across
iterations). The tasks' owners are forked once per `meta_train` call, by
`procs.forked`: worker j owns tasks j, j + n, ... Each iteration it
receives the global agent's parameter vector, one array, and sends back
its units' query gradients, one vector each, which the parent sums in task
order before its one outer step. So the floats do not depend on the worker
count, and meta-training never draws from the global agent's own
generator.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .config import SystemConfig
from .env import Task, VlcUavEnv, rollout
from .procs import fork_context, forked, receive, value
from .sac import (ReplayBuffer, SacAgent, learn_online, read_checkpoint,
                  require_split)

TASK_STREAM, AGENT_STREAM = 7, 9      # key parts of a unit's two generators


def require_meta_trainable(cfg: SystemConfig):
    """Refuse (ValueError) a config meta-training cannot run: one whose
    first iteration leaves a task buffer too small to split into support
    and query sets, or one whose warm-up outlasts a full task buffer. Both
    read the config alone, so callers check before they write anything."""
    require_split(min(cfg.buffer_capacity,
                      cfg.n_slots * cfg.episodes_per_task))
    if cfg.warmup_steps > cfg.buffer_capacity:    # would never end
        raise ValueError(f"warmup_steps {cfg.warmup_steps} exceeds "
                         f"buffer_capacity {cfg.buffer_capacity}, the "
                         f"most rows a task buffer holds")


class MetaSac:
    def __init__(self, cfg: SystemConfig, obs_dim: int, act_dim: int,
                 seed: int = 0):
        self.cfg = cfg
        self.seed = int(seed)
        self.agent = SacAgent(obs_dim, act_dim, cfg, seed=seed)
        self.task_seeds: list[int] = []
        self.iteration = 0

    # -- inner loop --

    def inner_adapt(self, adapted: SacAgent, buffer: ReplayBuffer,
                    support_idx: np.ndarray, steps: int,
                    rng: np.random.Generator) -> SacAgent:
        """Adapt `adapted`, a copy of the global agent, in place on support
        data only, with batches drawn from `rng`; returns it."""
        for _ in range(steps):
            adapted.update(buffer.sample(self.cfg.batch_size, rng,
                                         support_idx))
        return adapted

    # -- outer loop --

    def outer_update(self, grads) -> dict:
        """One global ADAM step on the summed query gradients (first order).

        `grads` yields each task's `SacAgent.grads` on its query batch, in
        task order, and the gradient vectors are summed in that order: the
        step does not depend on which process computed them.
        """
        total = None
        losses = {"actor": 0.0, "critic1": 0.0, "critic2": 0.0}
        for g, task_losses in grads:
            if total is None:
                total = g
            else:
                total += g
            for key in losses:
                losses[key] += task_losses[key]
        if total is None:
            raise ValueError("need at least one adapted task")
        self.agent.apply_grads(total)
        return losses

    # -- phases --

    def meta_train(self, task_sampler, iterations: int,
                   workers: int | None = None) -> list[dict]:
        """Alternate per-task rollouts, inner adaptation, one outer step.

        The tasks run on up to `workers` forked processes (None: every
        available CPU; see `procs.fork_context`); the results do not depend
        on it. Refuses, before it samples any task, a negative
        `iterations` and a config `require_meta_trainable` refuses.
        """
        if iterations < 0:
            raise ValueError(f"iterations must be at least 0, got "
                             f"{iterations}")
        cfg = self.cfg
        require_meta_trainable(cfg)
        tasks = [task_sampler() for _ in range(cfg.meta_task_count)]
        self.task_seeds = [t.seed for t in tasks]
        history = []
        with _task_owners(self, tasks, workers) as query:
            for it in range(iterations):
                losses = self.outer_update(query(self.iteration))
                losses["iteration"] = it
                history.append(losses)
                self.iteration += 1
        return history

    def _task_unit(self, env: VlcUavEnv, buf: ReplayBuffer, it: int,
                  k: int):
        """Unit (it, k): roll task k's episodes into its buffer, adapt a
        clone of the global agent on the support rows; its `grads` on a
        query batch.
        """
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, TASK_STREAM, it, k])
        adapted = self.agent.clone(lr=cfg.lr_inner)
        adapted.rng = np.random.default_rng([self.seed, AGENT_STREAM, it, k])

        def policy(obs):
            # buf.size: the warm-up spans iterations, as buf does
            if buf.size < cfg.warmup_steps:
                return rng.uniform(-1.0, 1.0, env.action_dim)
            return adapted.act(obs)

        for _ in range(cfg.episodes_per_task):
            rollout(env, policy, int(rng.integers(2**31)), buf.store)
        support_idx, query_idx = buf.split_indices(cfg.support_fraction, rng)
        self.inner_adapt(adapted, buf, support_idx, cfg.inner_steps, rng)
        return adapted.grads(buf.sample(cfg.batch_size, rng, query_idx))

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
        self.agent.save(path, extra={"seed": self.seed,
                                     "task_seeds": self.task_seeds,
                                     "iteration": self.iteration})

    @classmethod
    def load(cls, path: str, cfg: SystemConfig) -> "MetaSac":
        """The meta-learner `save` wrote; refuses a checkpoint without its
        state, such as a plain SAC agent's."""
        arrays, header = read_checkpoint(path)
        extra = header.get("extra", {})
        missing = [k for k in ("seed", "task_seeds", "iteration")
                   if k not in extra]
        if missing:
            raise ValueError(f"{path} holds no meta-learner state (no "
                             f"{', '.join(missing)}); it is not a "
                             f"meta-training checkpoint")
        meta = cls.__new__(cls)
        meta.cfg = cfg
        meta.agent = SacAgent.restore(arrays, header, cfg)
        meta.seed = int(extra["seed"])
        meta.task_seeds = list(extra["task_seeds"])
        meta.iteration = int(extra["iteration"])
        return meta


def _task_shard(meta: MetaSac, tasks: list, ks):
    """query(it): the `_task_unit`s (it, k) of the tasks `ks`, in order.

    The tasks' envs and replay buffers live as long as `query` does.
    """
    cfg = meta.cfg
    envs = [VlcUavEnv(cfg, tasks[k]) for k in ks]
    buffers = [ReplayBuffer(cfg.buffer_capacity, env.obs_dim,
                            env.action_dim) for env in envs]

    def query(it):
        return [meta._task_unit(env, buf, it, k)
                for k, env, buf in zip(ks, envs, buffers)]
    return query


@contextmanager
def _task_owners(meta: MetaSac, tasks: list, workers: int | None):
    """query(it): every task's `_task_unit` (it, k), in task order.

    In this process, or from `procs.forked` workers, worker j owning the
    tasks j, j + n, ... for the whole block; each call sends them the
    global agent's `flat`, one array. A worker's exception is raised here
    with its type and message. Leaving the block stops and joins every
    worker.
    """
    ctx, n = fork_context(workers, len(tasks))
    shards = [_task_shard(meta, tasks, range(j, len(tasks), n))
              for j in range(n)]
    if ctx is None:
        yield shards[0]
        return

    def owner(shard):
        def handle(request):
            it, flat = request
            meta.agent.flat[:] = flat
            return shard(it)
        return handle

    with forked(ctx, [owner(shard) for shard in shards]) as conns:
        def query(it):
            for conn in conns:
                conn.send((it, meta.agent.flat))
            units = [value(receive(conn)) for conn in conns]
            return [units[k % n][k // n] for k in range(len(tasks))]
        yield query
