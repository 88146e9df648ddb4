"""The slot kernels' fast paths against the forms they replaced.

`is_binary`, `project_beamformer` and the finiteness check of
`decode_action` were rewritten to cost less per slot. The earlier forms are
kept below verbatim (renamed `previous_*`), and their tests assert exact
equality with them, on the edge cases each fast path must keep and on
seeded random inputs. `propulsion_power` is checked against a 60-digit
decimal evaluation of the same model instead.
"""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from uavlc import LedSelection, RotorcraftParams, project_beamformer
from uavlc.dimming import is_binary, select_leds
from uavlc.uav import hover_power, propulsion_power

# ---------------------------------------------------------------------------
# the earlier forms, verbatim
# ---------------------------------------------------------------------------


def previous_is_binary(a):
    return np.count_nonzero(a) == np.count_nonzero(a == 1)


def previous_project_beamformer(w_raw, bound, selection):
    if bound < 0:
        raise ValueError("bound must be non-negative")
    w = np.asarray(w_raw, dtype=float) * selection.a[:, None]
    # a zero bound zeroes every nonzero row
    scale = [(bound / s if bound > 0.0 else 0.0) if s > bound else 1.0
             for s in np.abs(w).sum(axis=1).tolist()]
    return w * np.array(scale)[:, None]


def previous_finite(raw):
    return bool(np.isfinite(raw).all())


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
        # every row at most the bound; some exactly at it
        bound = float(np.abs(w).sum(axis=1).max()
                      * rng.choice([1.0, 1.0 + rng.uniform(0.0, 3.0)]))
        got = project_beamformer(w, bound, sel)
        want = previous_project_beamformer(w, bound, sel)
        assert got.tobytes() == want.tobytes()
        assert got is not w


def test_project_beamformer_fast_path_keeps_nan_and_inactive_rows():
    sel = LedSelection(a=np.array([1, 0, 1]))
    w = np.array([[np.nan, 0.1], [5.0, 5.0], [-0.0, 0.2]])
    got = project_beamformer(w, 1.0, sel)
    want = previous_project_beamformer(w, 1.0, sel)
    assert got.tobytes() == want.tobytes()
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
        assert got.tobytes() == previous_project_beamformer(
            w, bound, sel).tobytes()
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
