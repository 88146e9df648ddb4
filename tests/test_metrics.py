"""Rate/power accounting against hand-computed oracles."""

import math

import numpy as np
import pytest

from uavlc import (DimmingConfig, FlightConfig, LedSelection, QosConfig,
                   UavState, check_p1_feasibility, energy_efficiency,
                   per_user_rate, total_power)
from uavlc.metrics import RateReport, effective_gains, order_users

# two LEDs, two users, co-located columns
H = np.array([[2.0, 1.0],
              [2.0, 1.0]])
W = np.array([[0.5, 0.6],
              [0.5, 0.6]])
SEL = LedSelection(a=np.array([1, 1]))


def test_effective_gains_oracle():
    g = effective_gains(H, W, SEL)
    # user0: (2*0.5 + 2*0.5)^2 = 4 ; user1: (1*0.6 + 1*0.6)^2 = 1.44
    assert np.allclose(g, [4.0, 1.44])


def test_effective_gains_mask_inactive_rows():
    sel = LedSelection(a=np.array([1, 0]))
    g = effective_gains(H, W, sel)
    assert np.allclose(g, [1.0, 0.36])


def test_order_users_ascending_with_stable_ties():
    assert list(order_users(H, W, SEL)) == [1, 0]
    w_tie = np.array([[0.5, 1.0], [0.5, 1.0]])
    # both effective gains equal 4: ties resolve by user index
    assert list(order_users(H, w_tie, SEL)) == [0, 1]


def test_per_user_rate_oracle():
    order = order_users(H, W, SEL)
    rr = per_user_rate(H, W, SEL, np.array([0.5, 0.5]), order)
    # user1 decoded first, interfered by user0's beam:
    #   |h_1 . w_0|^2 = (1*0.5 + 1*0.5)^2 = 1
    #   SINR = 1.44 / (1 + 0.5)
    assert rr.rates[1] == pytest.approx(math.log2(1.0 + 1.44 / 1.5),
                                        rel=1e-12)
    # user0 decoded last, no interference: SINR = 4 / 0.5
    assert rr.rates[0] == pytest.approx(math.log2(9.0), rel=1e-12)
    assert rr.sum_rate == pytest.approx(rr.rates.sum(), rel=1e-12)


def reference_per_user_rate(h: np.ndarray, w: np.ndarray,
                            selection: LedSelection,
                            noise_var: np.ndarray,
                            order: np.ndarray) -> RateReport:
    """Per-user NOMA rate with interference from later-ordered users."""
    # the earlier numpy-per-user kernel, kept verbatim as the reference
    noise_var = np.broadcast_to(np.asarray(noise_var, dtype=float),
                                (h.shape[1],))
    masked = w * selection.a[:, None]
    # cross[k, i] = |h_k^H A w_i|^2
    cross = (h.T @ masked) ** 2
    k_users = h.shape[1]
    rates = np.zeros(k_users)
    for pos, k in enumerate(order):
        later = order[pos + 1:]
        interference = cross[k, later].sum() if later.size else 0.0
        sinr = cross[k, k] / (interference + noise_var[k])
        rates[k] = np.log2(1.0 + sinr)
    return RateReport(rates=rates, order=np.asarray(order))


@pytest.mark.parametrize("k_users", range(1, 13))
def test_per_user_rate_matches_reference_bitwise(k_users):
    rng = np.random.default_rng(100 + k_users)
    for trial in range(300):
        n = int(rng.integers(1, 11))
        h = rng.random((n, k_users)) * 10.0 ** rng.uniform(-7.0, 0.0)
        w = rng.normal(size=(n, k_users)) * 10.0 ** rng.uniform(-4.0, 1.0)
        if trial % 3 == 0:
            w = np.abs(w)
        sel = LedSelection(a=rng.integers(0, 2, n))
        h[:, rng.random(k_users) < 0.15] = 0.0  # users with no channel
        noise = (np.full(k_users, 10.0 ** rng.uniform(-22.0, -1.0))
                 if trial % 2 else 10.0 ** rng.uniform(-22.0, -1.0, k_users))
        order = (order_users(h, w, sel) if trial % 4
                 else rng.permutation(k_users))
        got = per_user_rate(h, w, sel, noise, order)
        want = reference_per_user_rate(h, w, sel, noise, order)
        assert np.array_equal(got.order, want.order)
        if k_users <= 8:
            assert np.array_equal(got.rates, want.rates)
        else:
            # numpy's add.reduce sums 8 or more terms in 8-way pairwise
            # blocks, while the kernel sums left to right; below 8 terms
            # both are the same left-to-right sum
            np.testing.assert_allclose(got.rates, want.rates, rtol=1e-12,
                                       atol=0.0)


def test_interference_free_single_user():
    h = np.array([[3.0], [3.0]])
    w = np.array([[0.2], [0.2]])
    sel = LedSelection(a=np.array([1, 1]))
    rr = per_user_rate(h, w, sel, np.array([0.9]), np.array([0]))
    assert rr.rates[0] == pytest.approx(math.log2(1.0 + 1.44 / 0.9),
                                        rel=1e-12)


def test_total_power_oracle():
    p = total_power(W, SEL, i_dc=0.25, p_propulsion=10.0,
                    amp_efficiency=1.2, conversion_factor=2.0,
                    circuit_power=3.0)
    assert p.transmit == pytest.approx(1.2 * 2.2, rel=1e-12)
    assert p.bias == pytest.approx(2.0 * 2 * 0.25, rel=1e-12)
    assert p.total == pytest.approx(2.64 + 1.0 + 3.0 + 10.0, rel=1e-12)


def test_total_power_counts_magnitudes_and_active_rows_only():
    sel = LedSelection(a=np.array([1, 0]))
    w = np.array([[-0.5, 0.6], [9.0, 9.0]])
    p = total_power(w, sel, i_dc=0.1, p_propulsion=0.5,
                    amp_efficiency=1.0, conversion_factor=1.0,
                    circuit_power=0.0)
    assert p.transmit == pytest.approx(1.1, rel=1e-12)
    assert p.bias == pytest.approx(0.1, rel=1e-12)


def test_energy_efficiency():
    order = order_users(H, W, SEL)
    rr = per_user_rate(H, W, SEL, np.array([0.5, 0.5]), order)
    p = total_power(W, SEL, 0.25, 10.0, 1.2, 2.0, 3.0)
    assert energy_efficiency(rr, p) == pytest.approx(rr.sum_rate / p.total,
                                                     rel=1e-12)


def _feasibility_setup():
    dim = DimmingConfig(eta=1.0, i_low=0.0, i_high=0.010, n_leds=2)
    flight = FlightConfig(slot_duration=1.0, n_slots=10, v_max=10.0,
                          a_max=6.0, q_min=np.zeros(3),
                          q_max=np.array([100.0, 100.0, 50.0]),
                          q_init=np.array([50.0, 50.0, 25.0]))
    state = UavState(position=np.array([50.0, 50.0, 25.0]),
                     velocity=np.zeros(3), slot=0)
    h = np.array([[2.0, 1.0], [2.0, 1.0]])
    w = np.array([[0.001, 0.002], [0.001, 0.002]])
    kw = dict(w=w, selection=SEL, i_dc=0.005, v_next=np.zeros(3),
              h_true=h, noise_var=np.array([1e-8, 1e-8]), uav_state=state,
              flight_cfg=flight, dim_cfg=dim,
              qos=QosConfig(r_min=0.01, p_max=100.0), p_propulsion=10.0,
              amp_efficiency=1.2, conversion_factor=1.0, circuit_power=1.0)
    return kw


def test_check_p1_feasibility_all_satisfied():
    report = check_p1_feasibility(**_feasibility_setup())
    for c in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "RTS"):
        assert report[c], c
    assert report["feasible"]


def test_check_p1_flags_power_budget():
    kw = _feasibility_setup()
    kw["qos"] = QosConfig(r_min=0.01, p_max=5.0)
    report = check_p1_feasibility(**kw)
    assert not report["C2"]
    assert not report["feasible"]


def test_check_p1_flags_rate_floor():
    kw = _feasibility_setup()
    kw["qos"] = QosConfig(r_min=50.0, p_max=100.0)
    assert not check_p1_feasibility(**kw)["C1"]


def test_check_p1_flags_dynamic_range():
    kw = _feasibility_setup()
    kw["w"] = np.full((2, 2), 0.004)  # row sum 0.008 > bound 0.005
    assert not check_p1_feasibility(**kw)["C3"]


def test_check_p1_flags_dimming_consistency():
    kw = _feasibility_setup()
    kw["i_dc"] = 0.004  # inconsistent with eta=1, both LEDs active
    assert not check_p1_feasibility(**kw)["C8"]


def test_check_p1_flags_flight_violations():
    kw = _feasibility_setup()
    kw["v_next"] = np.array([20.0, 0.0, 0.0])  # C6 and C7 at once
    report = check_p1_feasibility(**kw)
    assert not report["C6"]
    assert not report["C7"]


def test_qos_config_validation():
    with pytest.raises(ValueError):
        QosConfig(r_min=0.0, p_max=1.0)
    with pytest.raises(ValueError):
        QosConfig(r_min=1.0, p_max=0.0)
