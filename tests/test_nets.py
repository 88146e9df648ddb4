"""Hand-rolled network layer: finite-difference gradient validation."""

import tracemalloc

import numpy as np
import pytest

from uavlc.nets import (LOG_STD_MAX, LOG_STD_MIN, Adam, Mlp, soft_update,
                        squash_log_std, squash_log_std_grad)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def test_mlp_param_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    net = Mlp([3, 8, 2], rng)
    x = rng.standard_normal((5, 3))
    t = rng.standard_normal((5, 2))

    def loss_at(flat):
        probe = net.clone()
        probe.flat[:] = flat
        out, _ = probe.forward(x)
        return float(np.sum((out - t) ** 2))

    out, cache = net.forward(x)
    grads = net.backward(cache, 2.0 * (out - t))
    flat_analytic = np.concatenate([g.ravel() for g in grads])
    flat_numeric = numeric_grad(loss_at, net.flat.copy())
    err = np.max(np.abs(flat_analytic - flat_numeric)
                 / (np.abs(flat_numeric) + 1e-8))
    assert err < 1e-5


def reference_forward(net, x):
    """The forward pass with a fresh array per operation, kept as the
    reference for the in-place one."""
    acts = [x]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < n_layers - 1 else z)
    return acts[-1], acts


def reference_backward(net, cache, grad_out):
    """The backward pass with a fresh array per operation (reference)."""
    grad = np.empty_like(net.flat)
    grads_w, grads_b = net._layer_views(grad)
    delta = np.atleast_2d(grad_out)
    for i in reversed(range(len(net.weights))):
        grads_w[i][...] = cache[i].T @ delta
        grads_b[i][...] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * (1.0 - cache[i] ** 2)
    return grad, delta


@pytest.mark.parametrize("sizes,batch", [
    ([4, 6, 3], 1), ([9, 8, 8, 1], 16), ([29, 64, 64, 1], 64),
    ([120, 64, 64, 1], 1), ([120, 64, 64, 1], 64), ([57, 64, 64, 126], 64)])
def test_mlp_passes_match_reference_and_input_grad_is_dx_bitwise(sizes,
                                                                 batch):
    rng = np.random.default_rng(5)
    net = Mlp(sizes, rng)
    x = rng.standard_normal((batch, sizes[0]))
    out, cache = net.forward(x)
    ref_out, ref_cache = reference_forward(net, x)
    assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))
    grad_out = rng.standard_normal(out.shape)
    ref_grad, ref_dx = reference_backward(net, ref_cache, grad_out)
    assert np.array_equal(net.backward(cache, grad_out), ref_grad)
    assert np.array_equal(net.input_grad(cache, grad_out), ref_dx)


@pytest.mark.parametrize("seed,sizes", [(1, [4, 6, 3]), (6, [5, 7, 6, 1])])
def test_mlp_input_grad_matches_finite_differences(seed, sizes):
    rng = np.random.default_rng(seed)
    net = Mlp(sizes, rng)
    x0 = rng.standard_normal(sizes[0])

    def loss_at(xf):
        return float(np.sum(net(xf[None, :]) ** 2))

    out, cache = net.forward(x0[None, :])
    numeric = numeric_grad(loss_at, x0)
    err = np.max(np.abs(net.input_grad(cache, 2.0 * out)[0] - numeric)
                 / (np.abs(numeric) + 1e-8))
    assert err < 1e-5


def test_mlp_flat_round_trip_and_clone_independence():
    rng = np.random.default_rng(2)
    net = Mlp([2, 4, 1], rng)
    flat = net.flat.copy()
    other = net.clone()
    other.weights[0][0, 0] += 1.0
    assert np.array_equal(net.flat.copy(), flat)
    net2 = Mlp([2, 4, 1], np.random.default_rng(99))
    net2.flat[:] = flat
    assert np.array_equal(net2.flat.copy(), flat)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(3)
    p = rng.standard_normal(9)
    adam = Adam(p, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    # independent reference loop
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    ref = p.copy()
    cur = p.copy()
    for t in range(1, 6):
        g = rng.standard_normal(p.shape)
        adam.step(cur, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(cur, ref, rtol=1e-12, atol=1e-14)


def test_adam_step_is_the_one_expression_bitwise():
    # the update as one expression with temporaries, kept as the reference
    rng = np.random.default_rng(7)
    p = rng.standard_normal(257)
    adam = Adam(p, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8)
    cur, ref = p.copy(), p.copy()
    m, v = np.zeros_like(p), np.zeros_like(p)
    for t in range(1, 8):
        g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
        adam.step(cur, g)
        m *= 0.9
        m += (1 - 0.9) * g
        v *= 0.999
        v += (1 - 0.999) * g * g
        ref -= 3e-4 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t))
                                               + 1e-8)
        assert np.array_equal(cur, ref)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)


def test_adam_rejects_mismatched_grads():
    adam = Adam(np.zeros(2), lr=0.1)
    with pytest.raises(ValueError):
        adam.step(np.zeros(2), np.zeros(4))
    with pytest.raises(ValueError, match="do not cover"):
        Adam(np.zeros(5), lr=((0.1, 2), (0.2, 2)))


@pytest.mark.parametrize("lr", [3e-4, ((1e-3, 10_000), (2e-3, 30_000))],
                         ids=["scalar", "per-segment"])
def test_warm_adam_step_allocates_no_parameter_sized_block(lr):
    # a temporary per step, freed and mapped again each time, made a
    # 40,000-element step 1.5-2x slower; the scratch vectors prevent it
    rng = np.random.default_rng(5)
    p, g = rng.standard_normal(40_000), rng.standard_normal(40_000)
    adam = Adam(p, lr)
    adam.step(p, g)
    tracemalloc.start()
    try:
        adam.step(p, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes // 10


def test_soft_update_convex_combination():
    rng = np.random.default_rng(4)
    target = Mlp([2, 3, 1], rng)
    online = Mlp([2, 3, 1], rng)
    before = target.flat.copy()
    goal = online.flat.copy()
    soft_update(target.flat, online.flat, 0.25)
    assert np.allclose(target.flat.copy(), 0.75 * before + 0.25 * goal)


def test_squash_log_std_range_and_gradient():
    raw = np.linspace(-8.0, 8.0, 41)
    s = squash_log_std(raw)
    assert np.all(s >= LOG_STD_MIN - 1e-12)
    assert np.all(s <= LOG_STD_MAX + 1e-12)
    eps = 1e-6
    num = (squash_log_std(raw + eps) - squash_log_std(raw - eps)) / (2 * eps)
    assert np.allclose(squash_log_std_grad(raw), num, atol=1e-7)
