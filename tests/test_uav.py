"""Kinematics, flight-constraint reporting and rotor power oracles."""

import numpy as np
import pytest

from uavlc import (FlightConfig, RotorcraftParams, UavState, check_flight,
                   clamp_velocity, hover_power, propulsion_power,
                   step_kinematics)

ROTOR = RotorcraftParams(
    profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
    rotor_disk_area=0.79, blade_angular_velocity=400.0, rotor_radius=0.05,
    correction_factor=1.0, uav_weight=100.0, induced_hover_velocity=7.2,
    fuselage_drag_ratio=0.3)

FLIGHT = FlightConfig(slot_duration=1.0, n_slots=10, v_max=10.0, a_max=6.0,
                      q_min=np.zeros(3), q_max=np.array([100.0, 100.0, 50.0]),
                      q_init=np.array([50.0, 50.0, 25.0]))


def state_at(pos, vel, slot=0):
    return UavState(position=np.asarray(pos, dtype=float),
                    velocity=np.asarray(vel, dtype=float), slot=slot)


def test_step_kinematics():
    s = state_at([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], slot=4)
    nxt = step_kinematics(s, np.array([1.0, -2.0, 0.5]), FLIGHT)
    assert np.allclose(nxt.position, [2.0, 0.0, 3.5])
    assert np.allclose(nxt.velocity, [1.0, -2.0, 0.5])
    assert nxt.slot == 5


def test_check_flight_all_clear():
    s = state_at([50.0, 50.0, 25.0], [0.0, 0.0, 0.0])
    assert check_flight(s, np.array([2.0, 0.0, 0.0]), FLIGHT) == {
        "C5": True, "C6": True, "C7": True, "RTS": True}


def test_check_flight_position_box():
    s = state_at([99.0, 50.0, 25.0], [0.0, 0.0, 0.0])
    assert not check_flight(s, np.array([2.0, 0.0, 0.0]), FLIGHT)["C5"]
    # landing exactly on the boundary violates the strict box
    assert not check_flight(s, np.array([1.0, 0.0, 0.0]), FLIGHT)["C5"]


def test_check_flight_acceleration():
    s = state_at([50.0, 50.0, 25.0], [5.0, 0.0, 0.0])
    assert not check_flight(s, np.array([-2.0, 0.0, 0.0]), FLIGHT)["C6"]
    assert check_flight(s, np.array([-1.0, 0.0, 0.0]), FLIGHT)["C6"]


def test_check_flight_speed():
    s = state_at([50.0, 50.0, 25.0], [8.0, 0.0, 0.0])
    assert not check_flight(s, np.array([11.0, 0.0, 0.0]), FLIGHT)["C7"]


def test_check_flight_return_to_start():
    s = state_at([55.0, 50.0, 25.0], [0.0, 0.0, 0.0], slot=9)
    # final slot must land within the return tolerance of q_init
    assert not check_flight(s, np.array([0.0, 0.0, 0.0]), FLIGHT)["RTS"]
    assert check_flight(s, np.array([-5.0, 0.0, 0.0]), FLIGHT)["RTS"]
    # same command one slot earlier carries no return condition
    s_mid = state_at([55.0, 50.0, 25.0], [0.0, 0.0, 0.0], slot=5)
    assert check_flight(s_mid, np.array([0.0, 0.0, 0.0]), FLIGHT)["RTS"]


def test_clamp_velocity_enforces_both_limits():
    rng = np.random.default_rng(1)
    for _ in range(200):
        prev = rng.uniform(-1.0, 1.0, 3)
        prev *= rng.uniform(0.0, FLIGHT.v_max) / (np.linalg.norm(prev) + 1e-12)
        s = state_at([50.0, 50.0, 25.0], prev)
        v = clamp_velocity(s, rng.uniform(-30.0, 30.0, 3), FLIGHT)
        dv = np.linalg.norm(v - prev)
        assert dv <= FLIGHT.a_max * FLIGHT.slot_duration * (1 + 1e-9)
        assert np.linalg.norm(v) <= FLIGHT.v_max * (1 + 1e-9)


def test_clamp_velocity_passes_feasible_commands():
    s = state_at([50.0, 50.0, 25.0], [1.0, 0.0, 0.0])
    cmd = np.array([3.0, 1.0, 0.0])
    assert np.allclose(clamp_velocity(s, cmd, FLIGHT), cmd)


def test_hover_power_oracle():
    hov = hover_power(ROTOR)
    # blade profile: rho/8 zeta s A Omega^3 R^3
    assert hov.blade == pytest.approx(0.58065, rel=1e-9)
    # induced: (1 + iota) W^1.5 / sqrt(2 zeta A)
    assert hov.induced == pytest.approx(1437.5845869332215, rel=1e-9)
    assert hov.total == pytest.approx(1438.1652369332216, rel=1e-9)


def test_propulsion_power_at_zero_equals_hover():
    hov = hover_power(ROTOR)
    assert propulsion_power(np.zeros(3), ROTOR) == pytest.approx(
        hov.total, rel=1e-12)


def test_propulsion_power_oracle_at_5mps():
    assert propulsion_power(np.array([5.0, 0.0, 0.0]), ROTOR) == \
        pytest.approx(1277.353895297339, rel=1e-9)


def test_propulsion_power_depends_on_speed_only():
    p1 = propulsion_power(np.array([3.0, 4.0, 0.0]), ROTOR)
    p2 = propulsion_power(np.array([0.0, 0.0, 5.0]), ROTOR)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_flight_config_validation():
    with pytest.raises(ValueError):
        FlightConfig(slot_duration=0.0, n_slots=5, v_max=1.0, a_max=1.0,
                     q_min=np.zeros(3), q_max=np.ones(3), q_init=np.zeros(3))
    with pytest.raises(ValueError):
        FlightConfig(slot_duration=1.0, n_slots=5, v_max=1.0, a_max=1.0,
                     q_min=np.ones(3), q_max=np.ones(3), q_init=np.zeros(3))


@pytest.mark.parametrize("change, msg", [
    (dict(n_slots=0), "need at least one slot"),
    (dict(return_tolerance=-1.0), "return_tolerance must be non-negative"),
    (dict(q_init=np.zeros(2)), "q_init must be a 3-vector"),
    (dict(q_min=np.zeros((1, 3))), "q_min must be a 3-vector")])
def test_flight_config_owns_the_slot_count_tolerance_and_shapes(change,
                                                                 msg):
    fields = dict(slot_duration=1.0, n_slots=5, v_max=1.0, a_max=1.0,
                  q_min=np.zeros(3), q_max=np.ones(3), q_init=np.zeros(3))
    with pytest.raises(ValueError, match=msg):
        FlightConfig(**{**fields, **change})


def test_rotorcraft_params_validation():
    with pytest.raises(ValueError):
        RotorcraftParams(
            profile_drag_coeff=0.012, air_density=1.225, rotor_solidity=0.05,
            rotor_disk_area=0.79, blade_angular_velocity=400.0,
            rotor_radius=0.05, correction_factor=1.0, uav_weight=-1.0,
            induced_hover_velocity=7.2, fuselage_drag_ratio=0.3)
