"""Small fully-connected networks with hand-written backpropagation.

tanh hidden layers, linear output. Gradients are exact and are validated
against central finite differences in the test suite; keep any change here
in sync with those checks.

Each network owns one contiguous float64 vector `flat` holding w0, b0, w1,
b1, ... in order; `weights[i]` and `biases[i]` are views into it. That
vector is the one place the parameter layout lives: gradients, optimizer
moments, Polyak averaging, cloning and checkpoints all act on whole vectors
aligned with it.
"""

from __future__ import annotations

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


class Mlp:
    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        n_params = sum((fan_in + 1) * fan_out
                       for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.flat = np.zeros(n_params)
        self.weights, self.biases = self._layer_views(self.flat)
        for w, fan_in in zip(self.weights, sizes[:-1]):
            scale = 1.0 / np.sqrt(fan_in)
            w[...] = rng.uniform(-scale, scale, w.shape)

    def _layer_views(self, vec: np.ndarray):
        """Per-layer (weight, bias) views into a vector aligned with `flat`."""
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(vec[offset:offset + fan_in * fan_out]
                           .reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(vec[offset:offset + fan_out])
            offset += fan_out
        return weights, biases

    # -- parameter plumbing --

    @property
    def params(self) -> list[np.ndarray]:
        """Per-layer views in `flat` order: w0, b0, w1, b1, ..."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray):
        self.flat[:] = flat

    def clone(self) -> "Mlp":
        other = Mlp.__new__(Mlp)
        other.sizes = list(self.sizes)
        other.flat = self.flat.copy()
        other.weights, other.biases = other._layer_views(other.flat)
        return other

    # -- forward / backward --

    def forward(self, x: np.ndarray):
        """Returns (output, cache). x has shape (batch, in_dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [x]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(np.tanh(z) if i < n_layers - 1 else z)
        return acts[-1], acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, grad_out: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (parameter gradient aligned with .flat, d(loss)/d(input)).
        """
        grad = np.empty_like(self.flat)
        grads_w, grads_b = self._layer_views(grad)
        delta = np.atleast_2d(grad_out)
        for i in reversed(range(len(self.weights))):
            grads_w[i][...] = cache[i].T @ delta
            grads_b[i][...] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
            if i > 0:
                delta = delta * (1.0 - cache[i] ** 2)
        return grad, delta


class Adam:
    """Bias-corrected adaptive-moment update of one parameter vector."""

    def __init__(self, params_like: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params_like)
        self.v = np.zeros_like(params_like)

    def step(self, params: np.ndarray, grads: np.ndarray):
        """Update `params` in place."""
        if params.shape != grads.shape or params.shape != self.m.shape:
            raise ValueError("params/grads length mismatch")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grads * grads
        params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2)
                                              + self.eps)


def soft_update(target: Mlp, online: Mlp, coefficient: float):
    """Polyak averaging: target <- (1 - c) target + c online."""
    if target.sizes != online.sizes:
        raise ValueError("network shape mismatch")
    target.flat *= (1.0 - coefficient)
    target.flat += coefficient * online.flat


def squash_log_std(raw: np.ndarray) -> np.ndarray:
    """Smooth map of the raw log-std head into [LOG_STD_MIN, LOG_STD_MAX]."""
    return LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (np.tanh(raw) + 1.0)


def squash_log_std_grad(raw: np.ndarray) -> np.ndarray:
    return 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (1.0 - np.tanh(raw) ** 2)
