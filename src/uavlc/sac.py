"""Soft actor-critic on hand-rolled networks.

Squashed-Gaussian policy, twin critics with Polyak-averaged targets, and
ADAM updates computed from exact manual gradients. Rewards are scaled by a
constant inside the learner only; buffers and traces keep raw values.

Each agent keeps all its parameters in one vector, laid out as
actor | q1 | q2 | tq1 | tq2, with one ADAM on the trained segment
(actor | q1 | q2). Gradients, clones, checkpoints and the parameters
meta-training sends to its workers are whole vectors; only this module
knows the layout.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import SystemConfig
from .env import rollout
from .nets import (Adam, Mlp, param_count, soft_update, squash_log_std,
                   squash_log_std_grad)

TANH_EPS = 1e-6
CHECKPOINT_VERSION = 4
BUFFER_FIELDS = ("obs", "act", "rew", "next_obs", "done")
INITIAL_ROWS = 256


class ReplayBuffer:
    """Uniform ring buffer of transitions; batches sample without replacement.

    Storage starts at min(`capacity`, `INITIAL_ROWS`) rows and doubles, up
    to `capacity`, whenever a row arrives with every row taken. The ring
    wraps only once `capacity` rows are stored, so rows, ring position and
    every index drawn depend on `size` alone, never on the storage length.
    """

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        rows = min(capacity, INITIAL_ROWS)
        self.obs = np.zeros((rows, obs_dim))
        self.act = np.zeros((rows, act_dim))
        self.rew = np.zeros(rows)
        self.next_obs = np.zeros((rows, obs_dim))
        self.done = np.zeros(rows)
        self.size = 0
        self._pos = 0

    def __len__(self) -> int:
        return self.size

    def add(self, obs, act, rew, next_obs, done):
        i = self._pos
        if i == len(self.rew):
            self._grow()
        self.obs[i] = obs
        self.act[i] = act
        self.rew[i] = rew
        self.next_obs[i] = next_obs
        self.done[i] = float(done)
        self._pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _grow(self):
        rows = min(self.capacity, 2 * len(self.rew))
        for key in BUFFER_FIELDS:
            old = getattr(self, key)
            new = np.zeros((rows,) + old.shape[1:])
            new[:len(old)] = old
            setattr(self, key, new)

    def store(self, tr):
        """Add an env `Transition`."""
        self.add(tr.obs, tr.raw_action, tr.reward, tr.next_obs, tr.done)

    def get(self, idx: np.ndarray) -> dict:
        return {key: getattr(self, key)[idx] for key in BUFFER_FIELDS}

    def sample(self, batch_size: int, rng: np.random.Generator,
               rows: np.ndarray | None = None) -> dict:
        """A batch of `rows` (default: every stored row), drawn without
        replacement unless the pool is smaller than the batch."""
        n = self.size if rows is None else len(rows)
        if n == 0:
            raise ValueError("cannot sample from an empty buffer")
        return self.get(rng.choice(self.size if rows is None else rows,
                                   size=batch_size, replace=batch_size > n))

    def split_indices(self, support_fraction: float,
                      rng: np.random.Generator):
        """Disjoint, non-empty support/query partition of the whole buffer."""
        require_split(self.size)
        perm = rng.permutation(self.size)
        cut = max(1, int(round(support_fraction * self.size)))
        cut = min(cut, self.size - 1)
        return perm[:cut], perm[cut:]


def require_split(rows: int):
    """Refuse a buffer of `rows` rows, too few for a support and a query
    set that are both non-empty."""
    if rows < 2:
        raise ValueError(f"cannot split a buffer of {rows} rows into "
                         f"support and query sets; need at least 2")


def squashed_gaussian(out: np.ndarray, xi: np.ndarray):
    """(raw log-std, log-std, sigma, action) of the actor output `out`.

    `out` holds the mean and the raw log-std head side by side;
    action = tanh(mu + sigma * xi).
    """
    act_dim = out.shape[1] // 2
    raw_ls = out[:, act_dim:]
    log_std = squash_log_std(raw_ls)
    sigma = np.exp(log_std)
    return raw_ls, log_std, sigma, np.tanh(out[:, :act_dim] + sigma * xi)


def gaussian_policy_forward(actor: Mlp, obs: np.ndarray, xi: np.ndarray):
    """Reparameterized squashed-Gaussian head on top of the actor trunk.

    action = tanh(mu + sigma * xi); the log-probability carries the tanh
    change-of-variables correction.
    """
    obs = np.atleast_2d(obs)
    out, cache = actor.forward(obs)
    raw_ls, log_std, sigma, a = squashed_gaussian(out, xi)
    logp = (-0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * xi ** 2
            - np.log(1.0 - a ** 2 + TANH_EPS)).sum(axis=1)
    return {"cache": cache, "raw_ls": raw_ls, "sigma": sigma, "xi": xi,
            "action": a, "logp": logp}


def gaussian_policy_backward(actor: Mlp, fw: dict, grad_action: np.ndarray,
                             grad_logp: np.ndarray):
    """Actor parameter gradients for a loss touching action and logp.

    grad_action: d(loss)/d(action), shape (B, A); grad_logp: d(loss)/d(logp)
    per sample, shape (B,). The sampling noise xi is held fixed
    (reparameterization trick).
    """
    a = fw["action"]
    one_m_a2 = 1.0 - a ** 2
    c = grad_logp[:, None]
    # logp depends on the action through the tanh correction term
    d_da = grad_action + c * 2.0 * a / (one_m_a2 + TANH_EPS)
    d_du = d_da * one_m_a2
    d_mu = d_du
    d_log_std = -c + d_du * fw["sigma"] * fw["xi"]
    d_raw_ls = d_log_std * squash_log_std_grad(fw["raw_ls"])
    grad_out = np.concatenate([d_mu, d_raw_ls], axis=1)
    return actor.backward(fw["cache"], grad_out)


class SacAgent:
    """Squashed-Gaussian actor, twin critics and their Polyak targets.

    `flat` holds every parameter, laid out as actor | q1 | q2 | tq1 | tq2;
    the five `Mlp`s are views into it, and so are its segments `trained`
    (actor | q1 | q2), `critics` (q1 | q2) and `targets` (tq1 | tq2). One
    ADAM, `adam`, steps `trained`.
    """

    def __init__(self, obs_dim: int, act_dim: int, cfg: SystemConfig,
                 seed: int = 0):
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.rng = np.random.default_rng(seed)
        self._lay_out(None, rng=self.rng)
        self.targets[:] = self.critics

    def _lay_out(self, flat: np.ndarray | None, lr: float | None = None,
                 rng: np.random.Generator | None = None):
        """Make `flat` (None: a new zero vector) the parameters, laid out as
        actor | q1 | q2 | tq1 | tq2, with a fresh ADAM on `trained` at
        learning rate `lr` (None: the cfg's per-network rates, one per
        element). `rng`, when given, draws the actor's, then q1's, then
        q2's weights."""
        cfg = self.cfg
        actor = [self.obs_dim, *cfg.hidden_sizes, 2 * self.act_dim]
        critic = [self.obs_dim + self.act_dim, *cfg.hidden_sizes, 1]
        n_actor, n_critic = param_count(actor), param_count(critic)
        n_trained = n_actor + 2 * n_critic
        self.flat = (np.zeros(n_trained + 2 * n_critic) if flat is None
                     else flat)
        self.trained, self.targets = np.split(self.flat, [n_trained])
        self.critics = self.trained[n_actor:]
        self.actor = Mlp(actor, rng, self.trained[:n_actor])
        self.q1, self.q2 = (Mlp(critic, rng, part)
                            for part in np.split(self.critics, 2))
        self.tq1, self.tq2 = (Mlp(critic, None, part)
                              for part in np.split(self.targets, 2))
        if lr is None:
            lr = np.repeat([cfg.lr_actor, cfg.lr_critic1, cfg.lr_critic2],
                           [n_actor, n_critic, n_critic])
        self.adam = Adam(self.trained, lr, beta1=cfg.adam_beta1,
                         beta2=cfg.adam_beta2, eps=cfg.adam_eps)

    # -- acting --

    def act(self, obs: np.ndarray, deterministic: bool = False) -> np.ndarray:
        """An action in (-1, 1)^A; only the action, not the training head.

        Acting deterministically adds sigma * 0 to the mean. Where the
        actor's output row is finite, sigma is finite and sigma * 0 is
        +0.0, so the action is tanh(mu + 0.0) without the sampling head;
        a row with a NaN or an infinity (or a sum that overflows) takes
        the head, which keeps a NaN log-std's NaN.
        """
        out = self.actor(np.atleast_2d(obs))
        if deterministic and math.isfinite(np.add.reduce(out[0])):
            return np.tanh(out[0, :self.act_dim] + 0.0)
        shape = (out.shape[0], self.act_dim)
        xi = (np.zeros(shape) if deterministic
              else self.rng.standard_normal(shape))
        return squashed_gaussian(out, xi)[3][0]

    # -- targets and losses --

    def critic_target(self, rew: np.ndarray, done: np.ndarray,
                      next_obs: np.ndarray,
                      xi: np.ndarray | None = None) -> np.ndarray:
        """y = r + gamma (1 - done) [min(Q'_1, Q'_2)(s', a') - lambda log pi]."""
        cfg = self.cfg
        next_obs = np.atleast_2d(next_obs)
        if xi is None:
            xi = self.rng.standard_normal((next_obs.shape[0], self.act_dim))
        fw = gaussian_policy_forward(self.actor, next_obs, xi)
        qin = np.concatenate([next_obs, fw["action"]], axis=1)
        q_min = np.minimum(self.tq1(qin)[:, 0], self.tq2(qin)[:, 0])
        soft_v = q_min - cfg.entropy_weight * fw["logp"]
        return rew * cfg.reward_scale + cfg.gamma * (1.0 - done) * soft_v

    def critic_grads(self, batch: dict, xi: np.ndarray | None = None):
        """Mean-squared-error gradients of both critics toward the target."""
        y = self.critic_target(batch["rew"], batch["done"],
                               batch["next_obs"], xi=xi)
        qin = np.concatenate([batch["obs"], batch["act"]], axis=1)
        n = qin.shape[0]
        out = []
        for q in (self.q1, self.q2):
            pred, cache = q.forward(qin)
            err = pred[:, 0] - y
            loss = float(np.mean(err ** 2))
            out.append((q.backward(cache, (2.0 / n) * err[:, None]), loss))
        return out[0], out[1]

    def actor_grads(self, batch: dict, xi: np.ndarray | None = None):
        """Gradient of mean[lambda log pi(a|s) - min Q(s, a)], reparameterized."""
        cfg = self.cfg
        obs = batch["obs"]
        n = obs.shape[0]
        if xi is None:
            xi = self.rng.standard_normal((n, self.act_dim))
        fw = gaussian_policy_forward(self.actor, obs, xi)
        qin = np.concatenate([obs, fw["action"]], axis=1)
        p1, c1 = self.q1.forward(qin)
        p2, c2 = self.q2.forward(qin)
        q1v, q2v = p1[:, 0], p2[:, 0]
        q_min = np.minimum(q1v, q2v)
        loss = float(np.mean(cfg.entropy_weight * fw["logp"] - q_min))
        # dQ/da through whichever critic is the per-sample minimum
        use1 = (q1v <= q2v)[:, None]
        # the whole input gradient, then the action columns: a product over
        # those columns alone can round differently in BLAS
        dx1 = self.q1.input_grad(c1, np.where(use1, -1.0 / n, 0.0))
        dx2 = self.q2.input_grad(c2, np.where(use1, 0.0, -1.0 / n))
        grad_action = (dx1 + dx2)[:, self.obs_dim:]
        grad_logp = np.full(n, cfg.entropy_weight / n)
        grads = gaussian_policy_backward(self.actor, fw, grad_action,
                                         grad_logp)
        return grads, loss

    # -- updates --

    def apply_grads(self, g: np.ndarray):
        """One ADAM step of `trained` on `g`, a gradient aligned with it,
        then the Polyak update of `targets` toward `critics`.

        Raises ValueError naming the first network whose part of `g` holds
        NaN or inf, before any parameter changes.
        """
        if not np.isfinite(g).all():
            bad = np.flatnonzero(~np.isfinite(g))[0]
            n_actor = self.actor.flat.size
            name = ("actor" if bad < n_actor
                    else ("q1", "q2")[(bad - n_actor) // self.q1.flat.size])
            raise ValueError(f"non-finite gradient for network {name}")
        self.adam.step(self.trained, g)
        soft_update(self.targets, self.critics, self.cfg.polyak)

    def grads(self, batch: dict):
        """(g, losses): the gradient on `batch` at the current parameters,
        aligned with `trained`, and the actor's and both critics' losses."""
        (g1, l1), (g2, l2) = self.critic_grads(batch)
        ga, la = self.actor_grads(batch)
        return (np.concatenate([ga, g1, g2]),
                {"actor": la, "critic1": l1, "critic2": l2})

    def update(self, batch: dict) -> dict:
        """One simultaneous SAC step on `grads`; its losses."""
        g, losses = self.grads(batch)
        self.apply_grads(g)
        return losses

    # -- cloning and checkpoints --

    def clone(self, lr: float | None = None) -> "SacAgent":
        """Deep copy of the parameters with the same RNG state.

        The ADAM state is not copied: the copy gets a fresh one at learning
        rate `lr` (None: the cfg's).
        """
        other = SacAgent.__new__(SacAgent)
        other.cfg = self.cfg
        other.obs_dim = self.obs_dim
        other.act_dim = self.act_dim
        other.rng = np.random.default_rng()
        other.rng.bit_generator.state = self.rng.bit_generator.state
        other._lay_out(self.flat.copy(), lr)
        return other

    def save(self, path: str, extra: dict | None = None):
        arrays = {"flat": self.flat, "adam_t": np.array(self.adam.t),
                  "adam_m": self.adam.m, "adam_v": self.adam.v}
        header = {"version": CHECKPOINT_VERSION, "obs_dim": self.obs_dim,
                  "act_dim": self.act_dim,
                  "hidden_sizes": list(self.cfg.hidden_sizes),
                  "config_hash": self.cfg.config_hash(),
                  "rng": self.rng.bit_generator.state}
        if extra:
            header["extra"] = extra
        arrays["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str, cfg: SystemConfig, obs_dim: int | None = None,
             act_dim: int | None = None) -> "SacAgent":
        return cls.restore(*read_checkpoint(path), cfg, obs_dim, act_dim)

    @classmethod
    def restore(cls, arrays: dict, header: dict, cfg: SystemConfig,
                obs_dim: int | None = None,
                act_dim: int | None = None) -> "SacAgent":
        """Rebuild a saved agent under `cfg`.

        The saved hidden sizes and config hash must match the config's, and
        the saved dimensions must match `obs_dim`/`act_dim` where those are
        given.
        """
        for key, want in (("obs_dim", obs_dim), ("act_dim", act_dim),
                          ("hidden_sizes", list(cfg.hidden_sizes)),
                          ("config_hash", cfg.config_hash())):
            if want is not None and header[key] != want:
                raise ValueError(f"checkpoint {key} {header[key]} does not "
                                 f"match the expected {want}")
        agent = cls(header["obs_dim"], header["act_dim"], cfg)
        agent.flat[:] = arrays["flat"]
        agent.adam.t = int(arrays["adam_t"])
        agent.adam.m[:] = arrays["adam_m"]
        agent.adam.v[:] = arrays["adam_v"]
        agent.rng.bit_generator.state = header["rng"]
        return agent


def read_checkpoint(path: str) -> tuple[dict, dict]:
    """The arrays and the JSON header of a checkpoint file."""
    with np.load(path) as data:
        arrays = dict(data)
    header = json.loads(bytes(arrays.pop("header")).decode())
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version "
                         f"{header['version']}")
    return arrays, header


def learn_online(env, agent: SacAgent, rng: np.random.Generator,
                 episodes: int, warmup_steps: int):
    """Online SAC on `env`: roll `episodes` episodes into a fresh buffer.

    Episode seeds come from `rng`, and so do the uniform random actions of
    the first `warmup_steps` steps; after those, the agent acts. Once the
    buffer holds a batch and the warm-up is over, every step makes one
    update. Returns the buffer and the per-episode returns.
    """
    cfg = agent.cfg
    buffer = ReplayBuffer(cfg.buffer_capacity, env.obs_dim, env.action_dim)
    steps = 0

    def policy(obs):
        if steps < warmup_steps:
            return rng.uniform(-1.0, 1.0, env.action_dim)
        return agent.act(obs)

    def learn(tr):
        nonlocal steps
        buffer.store(tr)
        steps += 1
        if len(buffer) >= cfg.batch_size and steps >= warmup_steps:
            agent.update(buffer.sample(cfg.batch_size, agent.rng))

    returns = [rollout(env, policy, int(rng.integers(2**31)), learn)
               for _ in range(episodes)]
    return buffer, returns


def train_sac(env, cfg: SystemConfig, seed: int, episodes: int):
    """Plain single-task SAC from a fresh agent; (agent, buffer, returns)."""
    agent = SacAgent(env.obs_dim, env.action_dim, cfg, seed=seed)
    rng = np.random.default_rng([seed, 1])
    return (agent, *learn_online(env, agent, rng, episodes, cfg.warmup_steps))
