"""Small fully-connected networks with hand-written backpropagation.

tanh hidden layers, linear output. Gradients are exact and are validated
against central finite differences in the test suite; keep any change here
in sync with those checks.

Each network's parameters are one contiguous float64 vector `flat` holding
w0, b0, w1, b1, ... in order; `weights[i]` and `biases[i]` are views into
it. `flat` is the network's own or a view into a larger vector: a
`sac.SacAgent` lays out its five networks in one vector, and gradients,
ADAM moments, Polyak averaging, cloning and checkpoints act on whole
vectors aligned with it.
"""

from __future__ import annotations

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


def param_count(sizes) -> int:
    """Length of the `flat` vector of an `Mlp` with layer sizes `sizes`."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class Mlp:
    def __init__(self, sizes, rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        """A network on `flat` (None: a new zero vector), which it keeps as
        its parameters, not a copy. `rng`, when given, draws the weights,
        uniform in +-1/sqrt(fan_in); the biases are left as they are."""
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.flat = np.zeros(param_count(sizes)) if flat is None else flat
        self.weights, self.biases = self._layer_views(self.flat)
        if rng is not None:
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

    def clone(self) -> "Mlp":
        return Mlp(self.sizes, flat=self.flat.copy())

    # -- forward / backward --

    def forward(self, x: np.ndarray):
        """Returns (output, cache). x has shape (batch, in_dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        acts = [x]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            if i < n_layers - 1:
                np.tanh(z, out=z)
            acts.append(z)
        return acts[-1], acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Parameter gradient of a scalar loss, aligned with .flat, given
        d(loss)/d(output); `input_grad` gives d(loss)/d(input)."""
        grad = np.empty_like(self.flat)
        grads_w, grads_b = self._layer_views(grad)
        delta = np.atleast_2d(grad_out)
        for i in reversed(range(len(self.weights))):
            np.matmul(cache[i].T, delta, out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            if i > 0:
                delta = self._delta_below(i, cache, delta)
        return grad

    def input_grad(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) alone, without the parameter gradient."""
        delta = np.atleast_2d(grad_out)
        for i in reversed(range(len(self.weights))):
            delta = self._delta_below(i, cache, delta)
        return delta

    def _delta_below(self, i: int, cache, delta: np.ndarray) -> np.ndarray:
        """d(loss)/d(input of layer i) from d(loss)/d(its output)."""
        delta = delta @ self.weights[i].T
        if i > 0:
            delta *= 1.0 - cache[i] ** 2
        return delta


class Adam:
    """Bias-corrected adaptive-moment update of one parameter vector.

    `lr` is a scalar or a vector aligned with the parameters, one rate per
    element; each element's update is the same either way.
    """

    def __init__(self, params_like: np.ndarray, lr: float | np.ndarray,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params_like)
        self.v = np.zeros_like(params_like)
        # scratch for the step's temporaries, so a step allocates nothing
        self._a = np.empty_like(params_like)
        self._b = np.empty_like(params_like)

    def step(self, params: np.ndarray, grads: np.ndarray):
        """Update `params` in place.

        The operations, in order, are those of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g g and
        params -= lr (m / bc1) / (sqrt(v / bc2) + eps), each into scratch.
        """
        if params.shape != grads.shape or params.shape != self.m.shape:
            raise ValueError("params/grads length mismatch")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.beta1
        np.multiply(1 - self.beta1, grads, out=a)
        m += a
        v *= self.beta2
        np.multiply(1 - self.beta2, grads, out=a)
        a *= grads
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def soft_update(target: np.ndarray, online: np.ndarray, coefficient: float):
    """Polyak averaging of parameter vectors, in place:
    target <- (1 - c) target + c online."""
    if target.shape != online.shape:
        raise ValueError("parameter shape mismatch")
    target *= (1.0 - coefficient)
    target += coefficient * online


def squash_log_std(raw: np.ndarray) -> np.ndarray:
    """Smooth map of the raw log-std head into [LOG_STD_MIN, LOG_STD_MAX]."""
    return LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (np.tanh(raw) + 1.0)


def squash_log_std_grad(raw: np.ndarray) -> np.ndarray:
    return 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (1.0 - np.tanh(raw) ** 2)
