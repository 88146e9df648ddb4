"""Random and greedy baselines plus the power-cascade design routine."""

import numpy as np
import pytest

from uavlc import GreedyPolicy, LedSelection, RandomPolicy, VlcUavEnv, sample_task
import uavlc.baselines as baselines
from uavlc.baselines import (cascade_beamformer, floor_screen,
                             greedy_exhaustive_slot, noma_cascade_amplitudes)
from uavlc.metrics import order_users, per_user_rate

from conftest import small_config
from test_metrics import reference_per_user_rate


# The numpy-per-element kernels the Python-float ones replaced, kept
# verbatim (apart from their names) as the references they must match.

def reference_noma_cascade_amplitudes(gains: np.ndarray, r_min: float,
                                      noise_var: float,
                                      order_margin: float = 0.3,
                                      max_iters: int = 200) -> np.ndarray:
    gamma = 2.0 ** r_min - 1.0
    served = np.flatnonzero(gains > 0.0)
    e2 = np.zeros(gains.shape[0])
    if served.size == 0:
        return e2
    order = served[np.argsort(gains[served], kind="stable")]
    e2[order] = gamma * noise_var
    cap = gamma * noise_var * 1e12
    for _ in range(max_iters):
        changed = False
        for pos in range(order.size - 1, -1, -1):
            k = order[pos]
            later = order[pos + 1:]
            interference = float(np.sum(e2[later]
                                        * (gains[k] / gains[later]) ** 2))
            req = gamma * (interference + noise_var)
            if req > e2[k] * (1.0 + 1e-12):
                e2[k] = req
                changed = True
        for pos in range(1, order.size):
            k, prev = order[pos], order[pos - 1]
            floor = e2[prev] * (1.0 + order_margin)
            if e2[k] < floor:
                e2[k] = floor
                changed = True
        if not changed or e2[order[-1]] > cap:
            break
    return np.sqrt(e2)


def reference_cascade_beamformer(h_est: np.ndarray, selection: LedSelection,
                                 bound: float, r_min: float,
                                 noise_var: float, headroom: float = 0.05,
                                 bisect_iters: int = 60) -> np.ndarray:
    # the verbatim body below calls the reference kernels by these names
    noma_cascade_amplitudes = reference_noma_cascade_amplitudes
    per_user_rate = reference_per_user_rate
    n, k_users = h_est.shape
    active = selection.a.astype(bool)
    n_a = selection.n_active
    r_target = r_min * (1.0 + headroom)
    # co-located array: per-LED gain equals the column mean over active rows
    col_gain = h_est[active].mean(axis=0) if n_a else np.zeros(k_users)
    eff_gain = col_gain * n_a
    e_req = noma_cascade_amplitudes(eff_gain, r_target, noise_var)
    w = np.zeros((n, k_users))
    with np.errstate(divide="ignore", invalid="ignore"):
        per_led = np.where(eff_gain > 0.0, e_req / eff_gain, 0.0)
    w[active] = per_led
    row_sum = per_led.sum()
    if row_sum <= 0.0:
        return w
    t_cap = bound / row_sum
    if t_cap <= 1.0:
        return w * t_cap

    def meets_floor(t: float) -> bool:
        wt = w * t
        order = order_users(h_est, wt, selection)
        rr = per_user_rate(h_est, wt, selection,
                           np.full(k_users, noise_var), order)
        served = eff_gain > 0.0
        return bool(np.all(rr.rates[served] >= r_target * (1.0 - 1e-9)))

    lo, hi = 0.0, min(1.0 + 1e-9, t_cap)
    if not meets_floor(hi):
        hi = t_cap
        if not meets_floor(hi):
            return w * t_cap
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if meets_floor(mid):
            hi = mid
        else:
            lo = mid
    return w * min(hi * (1.0 + 1e-9), t_cap)


def assert_matches_reference(got, want, k_users):
    if k_users <= 8:
        assert np.array_equal(got, want)
    else:
        # numpy's add.reduce sums 8 or more terms in 8-way pairwise blocks,
        # while the kernels sum left to right
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_amplitudes_match_reference_bitwise(k_users):
    rng = np.random.default_rng(200 + k_users)
    for trial in range(150):
        gains = rng.random(k_users) * 10.0 ** rng.uniform(-6.0, 2.0)
        if trial % 3 == 0:
            gains[rng.random(k_users) < 0.3] = 0.0  # zero-gain users
        if trial % 5 == 0:
            # gain ratios below sqrt(gamma): the iterate diverges to the cap
            gains = gains[0] * (1.0 + 1e-3 * rng.random(k_users))
        r_min = rng.uniform(0.01, 3.0)
        noise = 10.0 ** rng.uniform(-22.0, 0.0)
        got = noma_cascade_amplitudes(gains, r_min, noise)
        want = reference_noma_cascade_amplitudes(gains, r_min, noise)
        assert_matches_reference(got, want, k_users)
    # max_iters exit before the iterate settles
    gains = np.linspace(1.0, 2.0, k_users)
    assert_matches_reference(
        noma_cascade_amplitudes(gains, 1.0, 1e-3, max_iters=2),
        reference_noma_cascade_amplitudes(gains, 1.0, 1e-3, max_iters=2),
        k_users)


def random_slot(rng, k_users):
    n = int(rng.integers(1, 11))
    user_scale = 10.0 ** rng.uniform(-1.5, 1.5, k_users)
    h_est = rng.random((n, k_users)) * 1e-5 * user_scale
    a = (rng.random(n) < 0.6).astype(int)
    a[rng.integers(n)] = 1
    return h_est, LedSelection(a=a)


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_beamformer_matches_reference_bitwise(k_users):
    rng = np.random.default_rng(300 + k_users)
    for trial in range(40):
        h_est, sel = random_slot(rng, k_users)
        if trial % 4 == 0:
            h_est[:, rng.integers(k_users)] = 0.0  # a user with no channel
        bound = 10.0 ** rng.uniform(-3.0, 3.0)
        r_min = rng.uniform(0.01, 1.0)
        noise = 10.0 ** rng.uniform(-22.0, -14.0)
        got = cascade_beamformer(h_est, sel, bound, r_min, noise)
        want = reference_cascade_beamformer(h_est, sel, bound, r_min, noise)
        assert_matches_reference(got, want, k_users)


def test_cascade_beamformer_matches_reference_on_its_exits():
    sel = LedSelection(a=np.array([1, 1, 1, 0]))
    # t_cap <= 1: the design alone already exceeds the dynamic range
    h_small = np.tile([1e-9, 2e-9], (4, 1))
    # near-equal gains: no scale meets the floor, so the bisection never
    # starts and the scale is capped (meets_floor(t_cap) fails)
    h_tied = np.tile([1.0, 1.01], (4, 1))
    # separated gains: a full bisection
    h_apart = np.tile([0.03, 0.2], (4, 1))
    for h_est, bound, r_min, noise in ((h_small, 0.01, 4.0, 1.0),
                                       (h_tied, 1e6, 2.0, 1e-20),
                                       (h_apart, 50.0, 1.0, 1e-4)):
        got = cascade_beamformer(h_est, sel, bound, r_min, noise)
        want = reference_cascade_beamformer(h_est, sel, bound, r_min, noise)
        assert np.array_equal(got, want)
    # the tied case really takes the capped exit: every active row sits
    # at the bound and the floor is missed
    got = cascade_beamformer(h_tied, sel, 1e6, 2.0, 1e-20)
    assert np.allclose(np.abs(got[:3]).sum(axis=1), 1e6, rtol=1e-12)
    rr = per_user_rate(h_tied, got, sel, np.full(2, 1e-20),
                       order_users(h_tied, got, sel))
    assert not np.all(rr.rates >= 2.0)


def exact_floor_test(h_est, w, sel, served, floor, noise_var, t):
    """The bisection's exact test at scale t, and the order it used."""
    wt = w * t
    order = order_users(h_est, wt, sel)
    rr = per_user_rate(h_est, wt, sel, np.full(h_est.shape[1], noise_var),
                       order)
    return bool((rr.rates[served] >= floor).all()), order


def threshold_grid(t_star, t_cap):
    """Scales around t_star: relative steps down to 1e-16, powers of 2^.25."""
    rel = [s * 10.0 ** -j for j in range(1, 17) for s in (-4, -1, 1, 4)]
    far = [2.0 ** (k / 4) - 1.0 for k in range(-24, 25)]
    return [t_star * (1.0 + r) for r in rel + far] + [t_cap]


def check_screen(screen, args, scales):
    """Each verdict the screen gives equals the exact test's answer, and
    order_users returns the certified order at every scale it covers.
    Returns how many scales were settled and how many were left."""
    order, verdict = screen
    h_est, w, sel, served, floor, noise_var, t_cap = args
    settled = left = 0
    for t in scales:
        want, exact_order = exact_floor_test(h_est, w, sel, served, floor,
                                             noise_var, t)
        if 2.0 ** -61 <= t <= t_cap:
            assert np.array_equal(exact_order, order), t
        got = verdict(t)
        if got is None:
            left += 1
        else:
            assert got == want, (t, got)
            settled += 1
    return settled, left


@pytest.mark.parametrize("k_users", range(1, 13))
def test_floor_screen_agrees_with_the_exact_test_on_bisections(
        k_users, monkeypatch):
    """Every midpoint the bisection visits, and a dense grid around the
    scale it settles on, on cascade designs."""
    built = []

    def recording(*args):
        screen = floor_screen(*args)
        if screen is None:
            return None
        order, verdict = screen
        visited = []

        def recorded(t):
            visited.append(t)
            return verdict(t)

        built.append((args, screen, visited))
        return order, recorded

    monkeypatch.setattr(baselines, "floor_screen", recording)
    rng = np.random.default_rng(400 + k_users)
    settled = left = 0
    for trial in range(30):
        h_est, sel = random_slot(rng, k_users)
        if trial % 3 == 0:
            h_est[:, rng.integers(k_users)] = 0.0  # a user with no channel
        bound = 10.0 ** rng.uniform(-3.0, 3.0)
        r_min = 10.0 ** rng.uniform(-4.0, 0.3)
        noise = 10.0 ** rng.uniform(-22.0, -14.0)
        built.clear()
        cascade_beamformer(h_est, sel, bound, r_min, noise)
        for args, screen, visited in built:
            h, w, s, served, floor, noise_var, t_cap = args
            passing = [t for t in visited
                       if exact_floor_test(h, w, s, served, floor,
                                           noise_var, t)[0]]
            t_star = min(passing) if passing else t_cap
            got = check_screen(screen, args,
                               visited + threshold_grid(t_star, t_cap))
            settled += got[0]
            left += got[1]
    assert settled > 0 and left > 0


@pytest.mark.parametrize("k_users", range(1, 13))
def test_floor_screen_agrees_with_the_exact_test_on_any_beams(k_users):
    """Arbitrary non-negative beams: zero-gain users, near-tied gains (the
    uncertified path; cascade designs keep gains apart) and small floors."""
    rng = np.random.default_rng(500 + k_users)
    settled = left = uncertified = 0
    for trial in range(40):
        h_est, sel = random_slot(rng, k_users)
        w = (rng.random(h_est.shape) * 10.0 ** rng.uniform(-7.0, -3.0, k_users)
             * sel.a[:, None])
        if trial % 3 == 0:
            w[:, rng.integers(k_users)] = 0.0  # a user with zero gain
        tie = None
        if trial % 2 and k_users > 1:
            a, b = rng.choice(k_users, 2, replace=False)
            amp = np.einsum("nk,nk->k", h_est, w)
            if amp[a] > 0.0 and amp[b] > 0.0:
                tie = 10.0 ** rng.uniform(-16.0, -9.0)
                w[:, b] *= amp[a] / amp[b] * (1.0 + tie)
        served = rng.random(k_users) < 0.8
        noise = 10.0 ** rng.uniform(-22.0, -14.0)
        # S_k and I_k along the order at t = 1; the SINR at scale t is
        # t^2 S / (t^2 I + N), which tends to S / I
        cross = (h_est.T @ w) ** 2
        ks = list(order_users(h_est, w, sel))
        users = [(cross[k, k], cross[k, ks[pos + 1:]].sum())
                 for pos, k in enumerate(ks) if served[k]]
        reach = min([s / i if i > 0.0 else np.inf for s, i in users],
                    default=np.inf)
        # a floor down to 1e-4, within reach of every served user
        floor = min(10.0 ** rng.uniform(-4.0, 0.5),
                    0.99 * float(np.log2(1.0 + reach)))
        gamma = 2.0 ** floor - 1.0
        t2 = max([gamma * noise / (s - gamma * i) if s > gamma * i
                  else np.inf for s, i in users], default=0.0)
        t_star = float(np.sqrt(t2))
        t_cap = (t_star * 10.0 ** rng.uniform(0.0, 2.0)
                 if 0.0 < t_star < np.inf else 10.0 ** rng.uniform(0.0, 3.0))
        args = (h_est, w, sel, served, floor, noise, t_cap)
        screen = floor_screen(*args)
        if screen is None:
            uncertified += 1
            continue
        # gains tied within 1e-12 cannot carry a certified order
        assert tie is None or tie > 1e-12
        if not 0.0 < t_star <= t_cap:
            t_star = t_cap
        got = check_screen(screen, args, threshold_grid(t_star, t_cap))
        settled += got[0]
        left += got[1]
    assert settled > 0 and left > 0
    if k_users > 1:
        assert uncertified > 0


def test_cascade_single_user_oracle():
    # one served user: minimal amplitude satisfies SINR = gamma exactly
    e = noma_cascade_amplitudes(np.array([2.0]), r_min=1.0, noise_var=4.0)
    assert e[0] == pytest.approx(2.0, rel=1e-9)  # sqrt(gamma * sigma^2)


def test_cascade_two_user_fixed_point_oracle():
    # gains 1 and 10, gamma = 1, noise = 1, ordering margin 0.3:
    #   e0^2 = 1 + 0.01 e1^2,  e1^2 = 1.3 e0^2
    #   => e0^2 = 1 / 0.987
    e = noma_cascade_amplitudes(np.array([1.0, 10.0]), r_min=1.0,
                                noise_var=1.0)
    assert e[0] ** 2 == pytest.approx(1.0 / 0.987, rel=1e-9)
    assert e[1] ** 2 == pytest.approx(1.3 / 0.987, rel=1e-9)


def test_cascade_sinrs_meet_floor_when_separated():
    gains = np.array([0.5, 2.0, 9.0])
    gamma = 2.0 ** 0.8 - 1.0
    e = noma_cascade_amplitudes(gains, r_min=0.8, noise_var=1e-3)
    order = np.argsort(gains)
    e2 = e ** 2
    for pos, k in enumerate(order):
        later = order[pos + 1:]
        interference = np.sum(e2[later] * (gains[k] / gains[later]) ** 2)
        sinr = e2[k] / (interference + 1e-3)
        assert sinr >= gamma * (1 - 1e-9)
    # effective powers ascend along the decoding order
    assert np.all(np.diff(e2[order]) > 0)


def test_cascade_zero_gain_users_get_zero():
    e = noma_cascade_amplitudes(np.array([0.0, 1.0, 0.0]), 1.0, 1.0)
    assert e[0] == 0.0 and e[2] == 0.0 and e[1] > 0.0


def test_cascade_near_equal_gains_diverge_gracefully():
    # gain ratio below sqrt(gamma): no consistent ordering exists at any
    # power; the iterate must still come back finite and ascending
    e = noma_cascade_amplitudes(np.array([1.0, 1.01]), r_min=2.0,
                                noise_var=1.0)
    assert np.all(np.isfinite(e))
    order = np.argsort([1.0, 1.01])
    assert np.all(np.diff((e ** 2)[order]) > 0)
    assert np.max(e ** 2) > 1e6  # driven toward the divergence cap


def test_cascade_beamformer_meets_floor_on_estimates():
    n, bound, r_min, noise = 4, 50.0, 1.0, 1e-4
    h_est = np.tile([0.03, 0.2], (n, 1))
    sel = LedSelection(a=np.array([1, 1, 1, 0]))
    w = cascade_beamformer(h_est, sel, bound, r_min, noise)
    assert np.all(w[3] == 0.0)
    assert np.all(np.abs(w).sum(axis=1) <= bound * (1 + 1e-9))
    order = order_users(h_est, w, sel)
    rr = per_user_rate(h_est, w, sel, np.full(2, noise), order)
    assert np.all(rr.rates >= r_min * (1 - 1e-9))


def test_cascade_beamformer_caps_at_bound_when_infeasible():
    h_est = np.tile([1e-9, 2e-9], (3, 1))
    sel = LedSelection(a=np.array([1, 1, 1]))
    w = cascade_beamformer(h_est, sel, bound=0.01, r_min=4.0,
                           noise_var=1.0)
    assert np.all(np.abs(w).sum(axis=1) <= 0.01 * (1 + 1e-9))


def test_random_policy_velocity_stream_invariant_to_array_size():
    cfg_a = small_config(n_leds=4)
    cfg_b = small_config(n_leds=6, n_users=3)
    env_a = VlcUavEnv(cfg_a, sample_task(cfg_a, np.random.default_rng(0)))
    env_b = VlcUavEnv(cfg_b, sample_task(cfg_b, np.random.default_rng(0)))
    pa = RandomPolicy(env_a, seed=5)
    pb = RandomPolicy(env_b, seed=5)
    va = [pa(None)[-3:] for _ in range(4)]
    vb = [pb(None)[-3:] for _ in range(4)]
    assert np.allclose(va, vb)


def test_random_policy_actions_in_box(env):
    policy = RandomPolicy(env, seed=0)
    a = policy(None)
    assert a.shape == (env.action_dim,)
    assert np.all(np.abs(a) <= 1.0)


def easy_env(**overrides):
    base = dict(r_min=0.01, p_max=5000.0, noise_var=1e-22, csi_radius=1e-12,
                n_slots=10)
    base.update(overrides)
    cfg = small_config(**base)
    return VlcUavEnv(cfg, sample_task(cfg, np.random.default_rng(8)))


def test_greedy_policy_flies_legally_and_returns_home():
    env = easy_env()
    policy = GreedyPolicy(env)
    obs = env.reset(seed=0)
    while not env.done:
        obs = env.step(policy(obs)).next_obs
    rows = env.trace.rows
    for c in ("C3", "C6", "C7", "C9"):
        assert all(r[c] == 1 for r in rows), c
    assert rows[-1]["RTS"] == 1
    assert env.trace.feasibility_fraction() >= 0.8


def test_greedy_policy_mostly_feasible_on_easy_task():
    env = easy_env()
    policy = GreedyPolicy(env)
    obs = env.reset(seed=1)
    while not env.done:
        obs = env.step(policy(obs)).next_obs
    assert all(r["C1"] == 1 for r in env.trace.rows)


def test_greedy_cruise_altitude_covers_users_within_fov():
    env = easy_env()
    policy = GreedyPolicy(env)
    cfg = env.cfg
    assert cfg.q_min[2] <= policy.cruise_altitude <= cfg.q_max[2]
    # target stays inside the flight box with margin
    q_min = np.asarray(cfg.q_min)
    q_max = np.asarray(cfg.q_max)
    assert np.all(policy.target > q_min)
    assert np.all(policy.target < q_max)


def test_greedy_exhaustive_slot_returns_feasible_minimum():
    led_scale = np.array([1.0, 0.7, 0.5, 0.3])
    h_est = np.outer(led_scale, [0.05, 0.2])
    sel_size, bound, r_min, noise = 2, 100.0, 1.0, 1e-3
    sel, w, p_best = greedy_exhaustive_slot(
        h_est, sel_size, bound, i_dc=0.005, r_min=r_min, noise_var=noise,
        p_propulsion=10.0, amp_efficiency=1.2, conversion_factor=1.0,
        circuit_power=1.0)
    assert sel is not None
    assert sel.n_active == sel_size
    order = order_users(h_est, w, sel)
    rr = per_user_rate(h_est, w, sel, np.full(2, noise), order)
    assert np.all(rr.rates >= r_min * (1 - 1e-9))
    assert np.isfinite(p_best)


def test_greedy_exhaustive_slot_reports_infeasible():
    h_est = np.zeros((3, 2))
    sel, w, p_best = greedy_exhaustive_slot(
        h_est, 2, 1.0, 0.005, 1.0, 1.0, 10.0, 1.2, 1.0, 1.0)
    assert sel is None and w is None and p_best == np.inf
