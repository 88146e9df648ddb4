"""The slot kernels' fast paths against the forms they replaced.

`is_binary`, `project_beamformer`, the finiteness check of
`decode_action`, the channel and its estimate, the flight checks and
clamp, the report with its order and rates, `least_floor_scale`, the
stepper with the greedy slot, and deterministic `SacAgent.act` were
rewritten to cost less per slot. The tests here assert exact equality
(`same_floats`) with each kernel's one frozen oracle, on the edge cases
each fast path must keep (tied gains and LED scores, -0.0 entries, a zero
bound, rows at the bound, NaN and infinite entries, users out of view,
non-binary selections, the final slot's RTS) and on seeded random inputs,
up to whole episodes at the benchmark's shapes.

Where a kernel has an earlier per-element form in `test_step_reference.py`
(`reference_project_beamformer`, `reference_channel_matrix`,
`reference_check_flight`, `reference_clamp_velocity`, the reference
report, `ReferenceEnv`, `ReferenceGreedyPolicy`), that form is its oracle
here too. The kernels with no such form keep the form they replaced
below, verbatim (renamed `previous_*`), as their one oracle: `is_binary`,
the decoder's finiteness check, `perturb_csi`, `least_floor_scale` and
deterministic `act`. `previous_per_user_rate` stays beside
`reference_per_user_rate` (`test_metrics.py`) because it alone sums the
interference left to right, as the kernel does, so it alone compares the
kernel bitwise past 8 later users. `previous_least_floor_scale` is
verbatim but for calling the library's `order_users`; it summed with the
builtin `sum`, which compensates from Python 3.12 on, so it is compared
only where that sum is the left-to-right one, and a hand-built case shows
which sum the library takes. `propulsion_power` is checked against a
60-digit decimal evaluation of the same model.

A bit-identical rewrite of a slot kernel adds its edge cases to a test
against the kernel's one oracle, not a new copy of the form it replaces.
"""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from uavlc import (GreedyPolicy, LedSelection, RandomPolicy,
                   RotorcraftParams, SacAgent, SystemConfig, UavState,
                   VlcUavEnv, check_flight, check_p1_feasibility,
                   channel_matrix, clamp_velocity, project_beamformer,
                   sample_task, total_power)
from uavlc.baselines import least_floor_scale
from uavlc.channel import (OpticsParams, concentrator_gain, lambertian_order,
                           perturb_csi)
from uavlc.dimming import (beamforming_bound, dc_bias_for, is_binary,
                           select_leds)
from uavlc.metrics import (CONSTRAINTS, RateReport, effective_gains,
                           order_users, per_user_rate)
from uavlc.sac import squashed_gaussian
from uavlc.uav import hover_power, propulsion_power

from conftest import (BENCH_K_REGIME, BENCH_POWER_REGIME, same_floats,
                      small_config)
from test_step_reference import (
    DIM, FLIGHT, ReferenceEnv, ReferenceGreedyPolicy, reference_channel_matrix,
    reference_check_flight, reference_clamp_velocity, reference_outcome,
    reference_project_beamformer, reference_total_power, report_case)

# ---------------------------------------------------------------------------
# the earlier forms, verbatim
# ---------------------------------------------------------------------------


def previous_is_binary(a):
    return np.count_nonzero(a) == np.count_nonzero(a == 1)


def previous_finite(raw):
    return bool(np.isfinite(raw).all())


def previous_perturb_csi(h, delta, rng):
    if delta < 0:
        raise ValueError("uncertainty radius must be non-negative")
    if delta == 0.0:
        return h.copy()
    eps = rng.uniform(-delta, delta, size=h.shape)
    return np.maximum(h + eps, 0.0)


def previous_per_user_rate(h, w, selection, noise_var, order):
    order = np.asarray(order)
    k_users = h.shape[1]
    noise = np.asarray(noise_var, dtype=float).tolist()
    masked = w * selection.a[:, None]
    # cross[k][i] = |h_k^H A w_i|^2
    cross = ((h.T @ masked) ** 2).tolist()
    ks = order.tolist()
    signal = [0.0] * k_users
    denom = [1.0] * k_users
    for pos, k in enumerate(ks):
        row = cross[k]
        interference = 0.0
        for i in ks[pos + 1:]:
            interference += row[i]
        signal[k] = row[k]
        denom[k] = interference + noise[k]
    sinr = np.divide(signal, denom)
    return RateReport(rates=np.log2(1.0 + sinr), order=order)


def previous_least_floor_scale(h_est, w, selection, served, floor,
                               noise_var):
    gamma = 2.0 ** floor - 1.0
    need = gamma * noise_var
    ks = order_users(h_est, w, selection).tolist()
    # w is zero off the active rows, so these are the masked cross gains
    cross = ((h_est.T @ w) ** 2).tolist()
    t2 = 0.0
    for pos, k in enumerate(ks):
        if served[k]:
            # the floor holds from t^2 margin >= need on
            margin = cross[k][k] - gamma * sum(cross[k][i]
                                               for i in ks[pos + 1:])
            if margin > 0.0:
                t2 = max(t2, need / margin)
            elif margin < 0.0 or need > 0.0:
                return math.inf
    return math.sqrt(t2)


def previous_act(agent, obs, deterministic=False):
    out = agent.actor(np.atleast_2d(obs))
    shape = (out.shape[0], agent.act_dim)
    xi = (np.zeros(shape) if deterministic
          else agent.rng.standard_normal(shape))
    return squashed_gaussian(out, xi)[3][0]


# ---------------------------------------------------------------------------
# is_binary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [
    [0, 1, 1, 0], [1], [0], [0, 2], [-1, 1], [3, 3],
    [0.0, 1.0], [0.5, 1.0], [1.0 + 1e-15, 0.0], [1.0 - 1e-16, 0.0],
    [True, False], [True], [False, False],
    [np.nan, 1.0], [np.nan], [0.0, np.nan], [np.inf, 0.0], [-np.inf],
    [-0.0, 1.0], [-0.0], [-1.0, 0.0],
    [0, 1, 2], [1, 2], [0, 5],
], ids=repr)
def test_is_binary_matches_previous_form(a):
    for dtype in (None, float):
        arr = np.asarray(a, dtype=dtype)
        assert is_binary(arr) == previous_is_binary(arr)
        assert is_binary(arr[::-1]) == previous_is_binary(arr[::-1])


def test_is_binary_matches_previous_form_on_random_vectors():
    rng = np.random.default_rng(4)
    answers = set()
    for _ in range(2000):
        a = rng.choice([0, 1, 2, -1, -0.0, 0.5, np.nan, True],
                       size=int(rng.integers(1, 12)),
                       p=[0.4, 0.4, 0.04, 0.04, 0.04, 0.04, 0.02, 0.02])
        for arr in (a, a.astype(float), (a == 1).astype(int)):
            want = previous_is_binary(arr)
            assert is_binary(arr) == want
            answers.add(want)
    assert answers == {True, False}


def test_is_binary_takes_two_dimensional_arrays():
    a = np.array([[0, 1], [1, 0]])
    assert is_binary(a) and previous_is_binary(a)
    a[1, 1] = 2
    assert not is_binary(a) and not previous_is_binary(a)


# ---------------------------------------------------------------------------
# project_beamformer
# ---------------------------------------------------------------------------

def test_project_beamformer_with_every_row_under_the_bound():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = rng.normal(size=(n, k))
        if rng.random() < 0.2:
            w[rng.random((n, k)) < 0.3] = -0.0
        # every active row at most the bound; the largest one at it or
        # under it: the masked beam passes, as a new array
        bound = float(np.abs(w * sel.a[:, None]).sum(axis=1).max()
                      * rng.choice([1.0, 1.0 + rng.uniform(0.0, 3.0)]))
        got = project_beamformer(w, bound, sel)
        assert same_floats(got, reference_project_beamformer(w, bound, sel))
        assert got is not w


def test_project_beamformer_fast_path_keeps_nan_and_inactive_rows():
    sel = LedSelection(a=np.array([1, 0, 1]))
    w = np.array([[np.nan, 0.1], [5.0, 5.0], [-0.0, 0.2]])
    got = project_beamformer(w, 1.0, sel)
    assert same_floats(got, reference_project_beamformer(w, 1.0, sel))
    assert np.all(got[1] == 0.0)


def test_project_beamformer_matches_previous_form_with_rows_over():
    rng = np.random.default_rng(7)
    over = 0
    for _ in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = rng.normal(size=(n, k))
        bound = float(rng.choice([0.0, rng.uniform(0.0, 2.0 * k)]))
        got = project_beamformer(w, bound, sel)
        assert same_floats(got, reference_project_beamformer(w, bound, sel))
        over += bool((np.abs(w * sel.a[:, None]).sum(axis=1) > bound).any())
    assert 200 < over < 2000


# ---------------------------------------------------------------------------
# propulsion_power
# ---------------------------------------------------------------------------

ROTORS = [
    RotorcraftParams(
        profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
        rotor_disk_area=0.79, blade_angular_velocity=400.0,
        rotor_radius=0.05, correction_factor=1.0, uav_weight=100.0,
        induced_hover_velocity=7.2, fuselage_drag_ratio=0.3),
    RotorcraftParams(
        profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
        rotor_disk_area=1e-4, blade_angular_velocity=1.0, rotor_radius=0.01,
        correction_factor=1.0, uav_weight=1e-3, induced_hover_velocity=0.5,
        fuselage_drag_ratio=1e-6),
]


# far past the hover induced velocity sqrt(1 + x^2) - x cancels
SLOW_INDUCED = dataclasses.replace(ROTORS[0], induced_hover_velocity=1e-3)


def decimal_propulsion_power(v, p):
    """The rotor power model in 60-digit decimal arithmetic, from the exact
    values of its float inputs; 60 digits absorb the cancellation."""
    with localcontext() as ctx:
        ctx.prec = 60
        speed2 = sum(Decimal(float(c)) ** 2 for c in v)
        drag, air, solidity, area = (Decimal(p.profile_drag_coeff),
                                     Decimal(p.air_density),
                                     Decimal(p.rotor_solidity),
                                     Decimal(p.rotor_disk_area))
        tip = Decimal(p.blade_angular_velocity) * Decimal(p.rotor_radius)
        weight = Decimal(p.uav_weight)
        blade_hover = drag / 8 * air * solidity * area * tip ** 3
        induced_hover = ((1 + Decimal(p.correction_factor)) * weight
                         * weight.sqrt() / (2 * air * area).sqrt())
        x = speed2 / (2 * Decimal(p.induced_hover_velocity) ** 2)
        return ((1 + 3 * speed2 / tip ** 2) * blade_hover
                + induced_hover * ((1 + x * x).sqrt() - x).sqrt()
                + Decimal("0.5") * Decimal(p.fuselage_drag_ratio) * air
                * solidity * area * speed2 * speed2.sqrt())


@pytest.mark.parametrize("rotor", ROTORS + [SLOW_INDUCED],
                         ids=["default", "featherweight", "slow-induced"])
def test_propulsion_power_within_2e_15_of_decimal(rotor):
    rng = np.random.default_rng(8)
    hov = hover_power(rotor)
    speeds = [np.zeros(3)] + [rng.normal(size=3) * 10.0 ** rng.uniform(-6, 2)
                              for _ in range(3000)]
    for v in speeds:
        got = propulsion_power(v, rotor)
        assert math.isfinite(got) and propulsion_power(v, rotor, hov) == got
        want = decimal_propulsion_power(v, rotor)
        assert abs(Decimal(got) - want) <= Decimal("2e-15") * want


def test_propulsion_power_is_finite_at_every_speed_up_to_1000_m_s():
    rng = np.random.default_rng(9)
    speeds = np.concatenate([np.linspace(0.0, 1000.0, 2001),
                             10.0 ** rng.uniform(-3.0, 3.0, 2000)])
    for speed in speeds:
        power = propulsion_power(np.array([speed, 0.0, 0.0]), SLOW_INDUCED)
        assert math.isfinite(power) and power > 0.0


# ---------------------------------------------------------------------------
# decode_action's finiteness check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                 [np.inf, -np.inf], [np.nan, np.inf]],
                         ids=repr)
def test_decode_action_refuses_what_the_previous_check_refused(env, bad):
    env.reset(seed=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.uniform(-1, 1, env.action_dim)
        at = rng.choice(env.action_dim, size=len(bad), replace=False)
        raw[at] = bad
        assert not previous_finite(raw)
        # inf + -inf in the sum raises numpy's invalid-value flag
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite raw action"):
            env.decode_action(raw)


def test_decode_action_takes_finite_entries_whose_sum_overflows(env):
    env.reset(seed=1)
    raw = np.full(env.action_dim, 1e308)
    with np.errstate(over="ignore"):
        assert not math.isfinite(raw.sum()) and previous_finite(raw)
        action = env.decode_action(raw)
    assert np.isfinite(action.w).all()


# ---------------------------------------------------------------------------
# the channel, its estimate and the per-optics and per-flight constants
# ---------------------------------------------------------------------------

OPTICS_SETS = [
    OpticsParams(half_power_semiangle=math.radians(60.0),
                 fov_semiangle=math.radians(60.0), pd_area=1e-4,
                 refractive_index=1.5),
    OpticsParams(half_power_semiangle=math.radians(35.0),
                 fov_semiangle=math.radians(25.0), pd_area=2e-4,
                 refractive_index=1.2),
]


@pytest.mark.parametrize("optics", OPTICS_SETS, ids=["wide", "narrow"])
def test_channel_matrix_and_estimate_match_previous_forms(optics):
    assert optics.lambertian_m == lambertian_order(
        optics.half_power_semiangle)
    assert optics.fov_gain == concentrator_gain(0.0, optics)
    rng = np.random.default_rng(31)
    out_of_view = 0
    for trial in range(2000):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-1.0, 2.5)
        users = rng.uniform(-1.0, 1.0, (k, 3)) * scale
        users[:, 2] = 0.0 if trial % 2 else -0.0
        uav = rng.uniform(-1.0, 1.0, 3) * scale
        if trial % 5 == 0:      # level with the users' plane: out of view
            uav[2] = -0.0
        got = channel_matrix(uav, users, optics, n)
        assert same_floats(got, reference_channel_matrix(uav, list(users),
                                                         optics, n))
        out_of_view += int(np.sum(got[0] == 0.0))
        delta = float(rng.choice([0.0, 10.0 ** rng.uniform(-12, -3)]))
        seed = int(rng.integers(2**31))
        assert same_floats(
            perturb_csi(got, delta, np.random.default_rng(seed)),
            previous_perturb_csi(got, delta, np.random.default_rng(seed)))
    assert out_of_view > 500


def test_perturb_csi_matches_previous_form():
    rng = np.random.default_rng(31)
    clamped = 0
    for _ in range(2000):
        k, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        h = np.tile(rng.random(k) * 10.0 ** rng.uniform(-9.0, -3.0), (n, 1))
        h[:, rng.random(k) < 0.2] = 0.0                 # out of view
        delta = float(rng.choice([0.0, 10.0 ** rng.uniform(-12, -3)]))
        seed = int(rng.integers(2**31))
        got = perturb_csi(h, delta, np.random.default_rng(seed))
        assert same_floats(got, previous_perturb_csi(
            h, delta, np.random.default_rng(seed)))
        assert got is not h
        clamped += int(np.sum((got == 0.0) & (h > 0.0)))
    assert clamped > 100


def test_optics_and_flight_constants_cannot_go_stale():
    with pytest.raises(dataclasses.FrozenInstanceError):
        OPTICS_SETS[0].fov_semiangle = 0.1
    flight = small_config().flight(np.array([25.0, 25.0, 20.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        flight.a_max = 1.0
    assert flight.box == ((0.0, 0.0, 10.0), (50.0, 50.0, 40.0))


# ---------------------------------------------------------------------------
# the flight checks and clamp
# ---------------------------------------------------------------------------

def test_check_flight_and_clamp_match_previous_forms():
    rng = np.random.default_rng(32)
    failed = set()
    for trial in range(20000):
        pos = rng.uniform(FLIGHT.q_min - 5.0, FLIGHT.q_max + 5.0)
        if trial % 3 == 0:       # next to home, so the RTS slot can pass
            pos = FLIGHT.q_init + rng.normal(size=3) * 3.0
        # the final slot, where RTS is checked, and two others
        slot = int(rng.choice([0, 4, FLIGHT.n_slots - 1]))
        state = UavState(position=pos, slot=slot,
                         velocity=rng.normal(size=3) * rng.uniform(0.0, 8.0))
        v = rng.normal(size=3) * rng.uniform(0.0, 25.0)
        if trial % 4 == 0:
            v = FLIGHT.q_init - pos     # fly home
        if trial % 50 == 0:
            # a NaN or -0.0 velocity entry, its coordinate on a box face
            i, special = trial // 50 % 3, trial // 150 % 2
            v[i] = (np.nan, -0.0)[special]
            state.position[i] = (FLIGHT.q_max, FLIGHT.q_min)[
                trial // 300 % 2][i]
        want = reference_check_flight(state, v, FLIGHT)
        assert same_floats(check_flight(state, v, FLIGHT),
                           {c: c not in want
                            for c in ("C5", "C6", "C7", "RTS")})
        failed.update(want)
        assert same_floats(clamp_velocity(state, v, FLIGHT),
                           reference_clamp_velocity(state, v, FLIGHT))
    assert failed == {"C5", "C6", "C7", "RTS"}


# ---------------------------------------------------------------------------
# the report, its order and rates
# ---------------------------------------------------------------------------

def edge_report_case(rng, bound_zero):
    """A slot with the edge cases: rows over, under and at the bound (a
    zero one when `bound_zero`: the DC bias at the top of its range),
    -0.0 entries, users out of view, tied gains, tied LED scores,
    selections mutated to a non-binary entry and the final slot."""
    k = int(rng.integers(1, 10))
    i_dc = DIM.i_high if bound_zero else dc_bias_for(DIM, 7)
    bound = beamforming_bound(i_dc, DIM.i_low, DIM.i_high)
    gains = rng.random(k) * 1e-6
    gains[rng.random(k) < 0.2] = 0.0                    # out of view
    if rng.random() < 0.2:
        gains[:] = gains[0]                             # tied users
    h = np.tile(gains, (10, 1))
    sel = select_leds(np.round(rng.normal(size=10)), 7)  # tied scores
    w = rng.normal(size=(10, k)) * max(bound, 1e-3) * rng.uniform(0.0, 0.5)
    if rng.random() < 0.3:
        w[rng.random((10, k)) < 0.3] = -0.0
    i = int(np.flatnonzero(sel.a)[0])
    if rng.random() < 0.3 and np.abs(w[i]).sum() > 0.0:  # a row at the bound
        w[i] *= bound / np.abs(w[i]).sum()
    elif rng.random() < 0.2:
        w[int(rng.integers(10))] *= 10.0
    if rng.random() < 0.05:
        sel.a[int(rng.integers(10))] = int(rng.choice([0, 2]))
    state = UavState(position=rng.uniform(FLIGHT.q_min - 2, FLIGHT.q_max + 2),
                     velocity=rng.normal(size=3) * 3.0,
                     slot=int(rng.choice([0, FLIGHT.n_slots - 1])))
    r_min = float(rng.choice([0.0, 0.5, 5.0]))
    return report_case(rng, r_min, h, sel, i_dc, w, state,
                       rng.normal(size=3) * 6.0)


@pytest.mark.parametrize("bound_zero", [False, True],
                         ids=["bound", "zero-bound"])
def test_report_order_and_rates_match_previous_forms(bound_zero):
    rng = np.random.default_rng(33)
    outcomes = set()
    for _ in range(3000):
        env, action, p_prop = edge_report_case(rng, bound_zero)
        h, w, sel = env.channels.true_gain, action.w, action.selection
        noise = env.channels.noise_var
        order = order_users(h, w, sel)
        gains = effective_gains(h, w, sel).tolist()
        assert order.tolist() == sorted(range(h.shape[1]),
                                        key=lambda k: (gains[k], k))
        got = per_user_rate(h, w, sel, noise, order)
        want = previous_per_user_rate(h, w, sel, noise, order)
        assert same_floats(got.rates, want.rates)
        assert got.order is order
        want, outcome = reference_outcome(env, action, p_prop)
        assert same_floats(check_p1_feasibility(env, action, p_prop),
                           outcome)
        args = (env.i_dc, p_prop, 1.2, 1.0, 0.5)
        assert same_floats(total_power(w, sel, *args),
                           reference_total_power(w, sel, *args))
        outcomes.update(c for c in CONSTRAINTS if not want[c])
        outcomes.add(want["feasible"])
    assert outcomes >= {"C1", "C2", "C3", "C5", "C6", "C7", "C9", "RTS",
                        False}


# ---------------------------------------------------------------------------
# least_floor_scale
# ---------------------------------------------------------------------------

def test_least_floor_scale_matches_previous_form_where_the_sums_agree():
    rng = np.random.default_rng(37)
    agreed = 0
    for trial in range(3000):
        n, k = int(rng.integers(1, 11)), int(rng.integers(1, 8))
        h = rng.random((n, k)) * 10.0 ** rng.uniform(-8, -4)
        sel = select_leds(rng.normal(size=n), int(rng.integers(1, n + 1)))
        w = np.abs(rng.normal(size=(n, k))) * sel.a[:, None]
        served = rng.random(k) < 0.8
        floor = float(rng.choice([0.01, 0.5, 2.0]))
        noise = float(rng.choice([0.0, 10.0 ** rng.uniform(-22, -12)]))
        ks = order_users(h, w, sel).tolist()
        cross = ((h.T @ w) ** 2).tolist()
        # the builtin sum compensates from Python 3.12 on
        if any(sum(cross[k][i] for i in ks[pos + 1:])
               != left_to_right(cross[k][i] for i in ks[pos + 1:])
               for pos, k in enumerate(ks)):
            continue
        agreed += 1
        assert same_floats(
            least_floor_scale(h, w, sel, served, floor, noise),
            previous_least_floor_scale(h, w, sel, served, floor, noise))
    assert agreed > 2000


def left_to_right(terms):
    total = 0.0
    for x in terms:
        total += x
    return total


def test_least_floor_scale_sums_the_interference_left_to_right():
    # one LED, four users decoded in user order; user 0's interference is
    # [1, 1e-16, 1e-16], whose compensated sum is 1 + 2^-52 while the
    # left-to-right sum is 1, and its margin nearly cancels, so the scale
    # shows which sum was taken
    gamma = 2.0 ** 1e-3 - 1.0
    w = np.array([[math.sqrt(gamma * (1.0 + 1e-10)), 1.0, 1e-8, 1e-8]])
    h = np.array([[1.0, 1.0, 1e9, 1e10]])
    sel = LedSelection(a=np.array([1]))
    noise = 1e-20
    assert order_users(h, w, sel).tolist() == [0, 1, 2, 3]
    cross = ((h.T @ w) ** 2).tolist()
    terms = cross[0][1:]
    assert left_to_right(terms) != math.fsum(terms)

    def scale(sum_of):
        t2 = 0.0
        for k in range(4):
            margin = cross[k][k] - gamma * sum_of(cross[k][k + 1:])
            t2 = max(t2, gamma * noise / margin)
        return math.sqrt(t2)

    got = least_floor_scale(h, w, sel, np.ones(4, dtype=bool), 1e-3, noise)
    assert got == scale(left_to_right)
    assert got != scale(math.fsum)


# ---------------------------------------------------------------------------
# whole episodes with the greedy slot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime, overrides", [
    (BENCH_K_REGIME, {}),
    (BENCH_POWER_REGIME, {}),
    # half the LEDs active, with tied scores (exact channel estimates)
    (BENCH_K_REGIME, {"csi_radius": 0.0, "dimming_level": 0.5}),
    (BENCH_K_REGIME, {"clamp_velocity": False, "observe_pose": False,
                      "reward_mode": "paper", "dimming_level": 0.7}),
], ids=["K-regime", "power-regime", "tied-scores", "paper-no-clamp"])
def test_episodes_match_previous_stepper_and_greedy(regime, overrides):
    rng = np.random.default_rng(35)
    rows = 0
    for n_users in range(1, 6):
        cfg = SystemConfig(**{**regime, "n_users": n_users, **overrides})
        task = sample_task(cfg, rng)
        env, ref = VlcUavEnv(cfg, task), ReferenceEnv(cfg, task)
        for episode, scheme in enumerate(("greedy", "random", "raw")):
            policies = {"greedy": (GreedyPolicy(env),
                                   ReferenceGreedyPolicy(ref)),
                        "random": (RandomPolicy(env, seed=episode),
                                   RandomPolicy(ref, seed=episode))}
            obs_a, obs_b = env.reset(seed=episode), ref.reset(seed=episode)
            assert same_floats(obs_a, obs_b)
            while not env.done:
                if scheme == "raw":
                    # past the box; tied scores; signed zeros
                    raw = rng.uniform(-1.5, 1.5, env.action_dim)
                    raw[rng.random(env.action_dim) < 0.1] = -0.0
                    a = b = raw
                else:
                    mine, theirs = policies[scheme]
                    a, b = mine(obs_a), theirs(obs_b)
                    assert same_floats(a, b)
                got, want = env.step(a), ref.step(b)
                obs_a, obs_b = got.next_obs, want.next_obs
                for field in ("obs", "raw_action", "reward", "next_obs",
                              "done"):
                    assert same_floats(getattr(got, field),
                                       getattr(want, field)), field
                assert same_floats(env.trace.rows[-1], ref.trace.rows[-1])
                rows += 1
            assert ref.done
    assert rows == 5 * 3 * 20


# ---------------------------------------------------------------------------
# deterministic act
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf, 1e308],
                         ids=repr)
def test_deterministic_act_matches_previous_form(special):
    cfg = small_config()
    agent = SacAgent(6, 3, cfg, seed=5)
    rng = np.random.default_rng(36)
    for trial in range(200):
        obs = rng.normal(size=6) * 10.0 ** rng.uniform(-2, 2)
        if special is not None:
            # one output entry through the last layer's bias
            out_bias = agent.actor.params[-1]
            saved = out_bias.copy()
            out_bias[int(rng.integers(out_bias.size))] = special
        with np.errstate(invalid="ignore", over="ignore"):
            got = agent.act(obs, deterministic=True)
            want = previous_act(agent, obs, deterministic=True)
        if special is not None:
            out_bias[:] = saved
        assert same_floats(got, want)
