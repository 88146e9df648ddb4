"""Random and greedy baselines plus the power-cascade design routine.

The cascade's kernels have one frozen oracle each, the earlier
numpy-per-element forms kept below verbatim (renamed `reference_*`):
`noma_cascade_amplitudes` is compared bit for bit with
`reference_noma_cascade_amplitudes` wherever it runs the sweep fallback,
tied gains included, and its fallback `_cascade_sweeps` on every cascade,
through each of its three exits; elsewhere the amplitudes are checked to
be the least fixed point. `cascade_beamformer` is compared bit for bit
with `reference_cascade_beamformer` on the exits that solve no scale and,
where it solves one, with the reference bisection to float resolution and
with its own closed-form scale applied as its docstring says.
`least_floor_scale` is checked against the exact rate test here and
against its earlier form in `test_slot_fast_paths.py`; the greedy slot
itself (`GreedyPolicy.__call__`) is compared with its earlier form over
whole episodes in `test_step_reference.py`.
"""

from itertools import chain

import numpy as np
import pytest

from uavlc import (GreedyPolicy, LedSelection, RandomPolicy, SystemConfig,
                   VlcUavEnv, rollout, sample_task)
import uavlc.baselines as baselines
from uavlc.baselines import (_cascade_sweeps, cascade_beamformer,
                             greedy_exhaustive_slot, least_floor_scale,
                             noma_cascade_amplitudes)
from uavlc.metrics import order_users, per_user_rate

from conftest import same_floats, small_config
from test_acceptance import K_REGIME
from test_metrics import reference_per_user_rate


# The earlier numpy-per-element kernels, kept verbatim (apart from their
# names): the monotone cascade sweep and the common-scale bisection, the
# references the closed forms are checked against.

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


def cascade_requirements(e2, gains, gamma, noise):
    """Each served position's SINR and ordering requirements on the
    effective powers e2, in decoding order (ordering margin 0.3)."""
    served = np.flatnonzero(gains > 0.0)
    order = served[np.argsort(gains[served], kind="stable")]
    sinr, ordering = [], []
    for pos, k in enumerate(order):
        later = order[pos + 1:]
        sinr.append(gamma * (np.sum(e2[later] * (gains[k] / gains[later]) ** 2)
                             + noise))
        ordering.append(e2[order[pos - 1]] * 1.3 if pos else 0.0)
    return order, np.array(sinr), np.array(ordering)


def cascade_reachable(gains, gamma):
    """Whether the least fixed point is finite: no position on its SINR
    branch, with every later position tied to it by the ordering margin
    0.3, has a loop gain (gamma times the sum of their multiples of it)
    of 1 or more."""
    g = np.sort(gains[gains > 0.0])
    step = 1.3 * (g[:-1] / g[1:]) ** 2
    return all(gamma * np.cumprod(step[a:]).sum() < 1.0
               for a in range(g.size - 1))


def cascade_case(gains, r_min, noise):
    """A cascade with its reference sweep and whether that sweep runs in
    the closed form too: an unreachable floor, or a design past the
    divergence cap."""
    gamma = 2.0 ** r_min - 1.0
    want = reference_noma_cascade_amplitudes(gains, r_min, noise)
    swept = (not cascade_reachable(gains, gamma)
             or np.max(want ** 2, initial=0.0) > gamma * noise * 1e12)
    return gains, r_min, noise, want, swept


def random_cascades(k_users):
    """150 random `cascade_case`s."""
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
        yield cascade_case(gains, r_min, noise)


def tied_cascades(k_users):
    """60 `cascade_case`s whose served users share a few exactly equal
    gains, so the decoding order breaks ties by user index; with rate
    floors up to 3, most of their floors are unreachable."""
    rng = np.random.default_rng(600 + k_users)
    for _ in range(60):
        levels = rng.random(3) * 10.0 ** rng.uniform(-6.0, 2.0)
        gains = levels[rng.integers(0, 3, k_users)]
        gains[rng.random(k_users) < 0.2] = 0.0
        yield cascade_case(gains, rng.uniform(0.01, 3.0),
                           10.0 ** rng.uniform(-22.0, 0.0))


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_amplitudes_match_reference_bitwise(k_users):
    """Unreachable floors, and designs that pass the divergence cap, give
    the reference sweep's capped iterate, tied gains in index order;
    zero-gain users get zero."""
    swept = 0
    for gains, r_min, noise, want, sweep in chain(random_cascades(k_users),
                                                  tied_cascades(k_users)):
        got = noma_cascade_amplitudes(gains, r_min, noise)
        assert np.all(got[gains == 0.0] == 0.0)
        if sweep:
            assert_matches_reference(got, want, k_users)
            swept += 1
    assert swept > 0 or k_users == 1


def test_cascade_sweeps_match_reference_on_each_exit(monkeypatch):
    """The sweep fallback on every cascade of 1 to 8 users, reachable or
    not, against the reference sweep (its sums have fewer than 8 terms, so
    they are the same left-to-right sums); each exit is taken: past the
    cap, settled (one sweep fewer gives the same powers) and MAX_SWEEPS
    sweeps run."""
    exits = dict.fromkeys(("cap", "settled", "all sweeps"), 0)
    for k_users in range(1, 9):
        for gains, r_min, noise, want, _ in chain(random_cascades(k_users),
                                                  tied_cascades(k_users)):
            served = np.flatnonzero(gains > 0.0)
            if served.size == 0:
                continue
            order = served[np.argsort(gains[served], kind="stable")]
            g = gains[order]
            ratio = ((g[:, None] / g[None, :]) ** 2).tolist()
            gamma = float(2.0 ** r_min - 1.0)
            cap = gamma * noise * 1e12
            e = _cascade_sweeps(ratio, gamma, noise, cap)
            e2 = np.zeros(k_users)
            e2[order] = e
            assert same_floats(np.sqrt(e2), want)
            with monkeypatch.context() as m:
                m.setattr(baselines, "MAX_SWEEPS", baselines.MAX_SWEEPS - 1)
                shorter = _cascade_sweeps(ratio, gamma, noise, cap)
            exits["cap" if e[-1] > cap else
                  "settled" if shorter == e else "all sweeps"] += 1
    assert min(exits.values()) > 0, exits


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_amplitudes_are_the_least_fixed_point(k_users):
    """Reachable floors give the least design meeting both requirements at
    every position."""
    settled = truncated = 0
    for gains, r_min, noise, want, sweep in random_cascades(k_users):
        if sweep:
            continue
        gamma = 2.0 ** r_min - 1.0
        got = noma_cascade_amplitudes(gains, r_min, noise)
        e2 = got ** 2
        order, sinr, ordering = cascade_requirements(e2, gains, gamma, noise)
        np.testing.assert_allclose(e2[order], np.maximum(sinr, ordering),
                                   rtol=1e-12, atol=0.0)
        assert np.all(got >= want * (1.0 - 1e-12))
        # one more sweep changes nothing exactly when the sweep settled
        more = reference_noma_cascade_amplitudes(gains, r_min, noise,
                                                 max_iters=201)
        if np.array_equal(more, want):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
            settled += 1
        else:
            truncated += 1
    assert settled > 0


def test_cascade_amplitudes_depend_only_on_gain_ratios():
    # gains of 1e-160 square to zero in floats; the design must not care
    gains = np.array([0.4, 1.0, 3.0, 0.0])
    want = noma_cascade_amplitudes(gains, 0.5, 1e-3)
    for scale in (1e-160, 1e150):
        np.testing.assert_allclose(
            noma_cascade_amplitudes(gains * scale, 0.5, 1e-3), want,
            rtol=1e-12, atol=0.0)


def random_slot(rng, k_users):
    n = int(rng.integers(1, 11))
    user_scale = 10.0 ** rng.uniform(-1.5, 1.5, k_users)
    h_est = rng.random((n, k_users)) * 1e-5 * user_scale
    a = (rng.random(n) < 0.6).astype(int)
    a[rng.integers(n)] = 1
    return h_est, LedSelection(a=a)


def random_beam_slots(seed, k_users, trials):
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        h_est, sel = random_slot(rng, k_users)
        if trial % 4 == 0:
            h_est[:, rng.integers(k_users)] = 0.0  # a user with no channel
        bound = 10.0 ** rng.uniform(-3.0, 3.0)
        r_min = rng.uniform(0.01, 1.0)
        noise = 10.0 ** rng.uniform(-22.0, -14.0)
        yield h_est, sel, bound, r_min, noise


def beams_on_reference_shape(k_users, monkeypatch):
    """Both beamformers on the reference's beam shape (its cascade
    monkeypatched in), with the design at its closed-form scale t* (1 +
    1e-9) where that scale is below the cap (none where it is not); the
    reference bisection is carried to float resolution."""
    monkeypatch.setattr(baselines, "noma_cascade_amplitudes",
                        reference_noma_cascade_amplitudes)
    scales = []

    def recording(h_est, w, *args):
        t = least_floor_scale(h_est, w, *args)
        scales.append((t, w))
        return t

    monkeypatch.setattr(baselines, "least_floor_scale", recording)
    for h_est, sel, bound, r_min, noise in random_beam_slots(
            300 + k_users, k_users, 40):
        scales.clear()
        got = cascade_beamformer(h_est, sel, bound, r_min, noise)
        want = reference_cascade_beamformer(h_est, sel, bound, r_min, noise,
                                            bisect_iters=200)
        solved = [w * (t * (1.0 + 1e-9)) for t, w in scales
                  if t * (1.0 + 1e-9) < bound / w.sum(axis=1).max()]
        yield got, want, solved


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_beamformer_matches_reference_bitwise(k_users, monkeypatch):
    """Where the closed form solves no scale below the cap (no user has a
    channel, the design alone passes the bound, or no scale within it
    meets the floor), the design is the reference's."""
    exits = 0
    for got, want, solved in beams_on_reference_shape(k_users, monkeypatch):
        if not solved:
            assert_matches_reference(got, want, k_users)
            exits += 1
    assert exits > 0


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_beamformer_scale_matches_reference_bisection(
        k_users, monkeypatch):
    """Where the closed form solves a scale, it agrees with the reference
    bisection carried to float resolution: a 60-step bracket that starts
    at t_cap ~ 1e7 is still ~1e-11 wide."""
    solves = 0
    for got, want, solved in beams_on_reference_shape(k_users, monkeypatch):
        if solved:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert same_floats(got, solved[0])
            solves += 1
    assert solves > 0


def exact_floor_test(h_est, w, sel, r_min, noise_var):
    """The reference bisection's rate test on the served users."""
    served = h_est[sel.a.astype(bool)].sum(axis=0) > 0.0
    return floor_test_at(h_est, w, sel, served, r_min * 1.05 * (1.0 - 1e-9),
                         noise_var, 1.0)[0]


@pytest.mark.parametrize("k_users", range(1, 13))
def test_cascade_beamformer_scale_is_the_least_meeting_the_floor(k_users):
    """The exact rate test passes at the returned scale and fails just
    below it, unless the scale is capped at the dynamic-range bound."""
    capped = uncapped = 0
    for h_est, sel, bound, r_min, noise in random_beam_slots(
            400 + k_users, k_users, 40):
        w = cascade_beamformer(h_est, sel, bound, r_min, noise)
        rows = np.abs(w[sel.a.astype(bool)]).sum(axis=1)
        if not np.any(rows):
            continue        # no user has a channel: nothing to scale
        at_cap = np.isclose(rows.max(), bound, rtol=1e-12, atol=0.0)
        passes = exact_floor_test(h_est, w, sel, r_min, noise)
        assert passes or at_cap
        assert not exact_floor_test(h_est, w * 0.99999999, sel, r_min, noise)
        capped += at_cap
        uncapped += not at_cap
    assert capped > 0 and uncapped > 0


def test_cascade_beamformer_matches_reference_on_its_exits():
    sel = LedSelection(a=np.array([1, 1, 1, 0]))
    # t_cap <= 1: the design alone already exceeds the dynamic range
    h_small = np.tile([1e-9, 2e-9], (4, 1))
    # near-equal gains: no scale meets the floor, so the scale is capped
    h_tied = np.tile([1.0, 1.01], (4, 1))
    for h_est, bound, r_min, noise in ((h_small, 0.01, 4.0, 1.0),
                                       (h_tied, 1e6, 2.0, 1e-20)):
        got = cascade_beamformer(h_est, sel, bound, r_min, noise)
        want = reference_cascade_beamformer(h_est, sel, bound, r_min, noise)
        assert np.array_equal(got, want)
    # separated gains: the closed-form scale
    h_apart = np.tile([0.03, 0.2], (4, 1))
    got = cascade_beamformer(h_apart, sel, 50.0, 1.0, 1e-4)
    want = reference_cascade_beamformer(h_apart, sel, 50.0, 1.0, 1e-4)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    # the tied case really takes the capped exit: every active row sits
    # at the bound and the floor is missed
    got = cascade_beamformer(h_tied, sel, 1e6, 2.0, 1e-20)
    assert np.allclose(np.abs(got[:3]).sum(axis=1), 1e6, rtol=1e-12)
    rr = per_user_rate(h_tied, got, sel, np.full(2, 1e-20),
                       order_users(h_tied, got, sel))
    assert not np.all(rr.rates >= 2.0)


def undecided(h_est, w, sel, served, floor, noise_var, t):
    """Whether some served user's SINR at scale t, in the order at scale 1,
    lies within 1e-13 (1 + gamma) of gamma: the float rate test resolves
    log2(1 + SINR) only to about eps, and 2^floor - 1 carries the same."""
    gamma = 2.0 ** floor - 1.0
    cross = (h_est.T @ w) ** 2
    ks = list(order_users(h_est, w, sel))
    for pos, k in enumerate(ks):
        if served[k]:
            sinr = t * t * cross[k, k] / (t * t * cross[k, ks[pos + 1:]].sum()
                                          + noise_var)
            if abs(sinr - gamma) <= 1e-13 * (1.0 + gamma):
                return True
    return False


def floor_test_at(h_est, w, sel, served, floor, noise_var, t):
    """The exact floor test at scale t, and the order it used."""
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


def check_screen(args, t_least, scales):
    """At each scale where the exact test keeps the order at scale 1, its
    verdict is t >= t_least, apart from scales undecided within its
    rounding. Returns how many scales were settled, how many were left
    undecided and how many were reordered."""
    h_est, w, sel, served, floor, noise_var = args
    order = order_users(h_est, w, sel)
    settled = left = reordered = 0
    for t in scales:
        passes, exact_order = floor_test_at(*args, t)
        if not np.array_equal(exact_order, order):
            reordered += 1
        elif undecided(*args, t):
            left += 1
        else:
            assert passes == (t >= t_least), (t, t_least, passes)
            settled += 1
    return settled, left, reordered


def bisection_scales(test, t_cap, iters=60):
    """The scales the reference bisection probes with its floor test."""
    visited = []

    def probe(t):
        visited.append(t)
        return test(t)

    lo, hi = 0.0, min(1.0 + 1e-9, t_cap)
    if not probe(hi):
        hi = t_cap
        if not probe(hi):
            return visited
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return visited


@pytest.mark.parametrize("k_users", range(1, 13))
def test_floor_screen_agrees_with_the_exact_test_on_bisections(
        k_users, monkeypatch):
    """On cascade designs, least_floor_scale (the closed-form floor screen
    that replaced the bisection) agrees with the exact test at every scale
    the reference bisection probes and on a dense grid around the least
    scale, and a common scale keeps the decoding order."""
    built = []

    def recording(*args):
        t = least_floor_scale(*args)
        built.append((args, t))
        return t

    monkeypatch.setattr(baselines, "least_floor_scale", recording)
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
        for args, t_least in built:
            t_cap = bound / args[1].sum(axis=1).max()
            visited = bisection_scales(
                lambda t: floor_test_at(*args, t)[0], t_cap)
            t_star = t_least if t_least <= t_cap else t_cap
            got = check_screen(args, t_least,
                               visited + threshold_grid(t_star, t_cap))
            assert got[2] == 0
            settled += got[0]
            left += got[1]
    assert settled > 0 and left > 0


@pytest.mark.parametrize("k_users", range(1, 13))
def test_floor_screen_agrees_with_the_exact_test_on_any_beams(k_users):
    """Arbitrary non-negative beams: zero-gain users, near-tied gains (a
    common scale may reorder gains tied within rounding; cascade designs
    keep gains apart) and small floors."""
    rng = np.random.default_rng(500 + k_users)
    settled = left = unreachable = 0
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
        reach = min([s / i if i > 0.0 else np.inf for s, i in users
                     if s > 0.0], default=np.inf)
        # a floor down to 1e-4, within reach of every served user with a
        # gain (a served zero-gain user makes it unreachable)
        floor = min(10.0 ** rng.uniform(-4.0, 0.5),
                    0.99 * float(np.log2(1.0 + reach)))
        args = (h_est, w, sel, served, floor, noise)
        t_least = least_floor_scale(*args)
        unreachable += t_least == np.inf
        t_star = t_least if 0.0 < t_least < np.inf else 1.0
        t_cap = t_star * 10.0 ** rng.uniform(0.0, 2.0)
        got = check_screen(args, t_least, threshold_grid(t_star, t_cap))
        # only gains tied within rounding reorder under a common scale
        assert got[2] == 0 or tie < 1e-12
        settled += got[0]
        left += got[1]
    assert settled > 0 and left > 0 and unreachable > 0


def test_greedy_sweep_keeps_the_reference_feasibility(monkeypatch):
    """The gate's K regime, K = 1..5 on six layouts: every slot keeps the
    reference beamformer's feasibility, and its total power within 1e-4
    wherever the reference sweep settled. Where 200 sweeps cut it short,
    the exact cascade may only be cheaper."""
    def slots():
        rows = []
        for k in range(1, 6):
            cfg = SystemConfig(n_users=k, **K_REGIME)
            for layout in range(6):
                task = sample_task(cfg, np.random.default_rng(3000 + layout))
                env = VlcUavEnv(cfg, task)
                rollout(env, GreedyPolicy(env), layout)
                rows += env.trace.rows
        return rows

    cut = []    # per slot: the reference sweep had not settled

    def recording(gains, r_min, noise_var):
        want = reference_noma_cascade_amplitudes(gains, r_min, noise_var)
        more = reference_noma_cascade_amplitudes(gains, r_min, noise_var,
                                                 max_iters=201)
        cut.append(not np.array_equal(want, more))
        return noma_cascade_amplitudes(gains, r_min, noise_var)

    monkeypatch.setattr(baselines, "noma_cascade_amplitudes", recording)
    got = slots()
    monkeypatch.setattr(baselines, "cascade_beamformer",
                        reference_cascade_beamformer)
    want = slots()
    assert len(cut) == len(got) == len(want)
    assert [r["feasible"] for r in got] == [r["feasible"] for r in want]
    p_got = np.array([r["p_total"] for r in got])
    p_want = np.array([r["p_total"] for r in want])
    cut = np.array(cut)
    np.testing.assert_allclose(p_got[~cut], p_want[~cut], rtol=1e-4, atol=0.0)
    assert np.all(p_got[cut] <= p_want[cut] * (1.0 + 1e-4))


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
    assert env.trace.mean("feasible") >= 0.8


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
