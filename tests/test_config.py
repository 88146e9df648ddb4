"""Configuration loading, validation and hashing."""

import dataclasses
import logging
import math
import re

import pytest

from uavlc import SystemConfig, load_config


def test_defaults_are_valid():
    cfg = SystemConfig()
    assert cfg.n_leds == 10
    assert cfg.v_max == 10.0
    assert cfg.optics().half_power_semiangle == pytest.approx(
        math.radians(60.0))
    assert cfg.dimming().i_zero == pytest.approx(0.005)


def test_replace_returns_new_validated_config():
    cfg = SystemConfig()
    cfg2 = cfg.replace(n_users=3)
    assert cfg2.n_users == 3
    assert cfg.n_users == 5
    with pytest.raises(ValueError):
        cfg.replace(dimming_level=0.0)


def test_hash_stable_and_sensitive():
    a = SystemConfig()
    b = SystemConfig()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != a.replace(r_min=1.5).config_hash()


def test_load_config_yaml(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("n_users: 3\nr_min: 0.5\nq_max: [60, 60, 50]\n")
    cfg = load_config(str(p))
    assert cfg.n_users == 3
    assert cfg.r_min == 0.5
    assert cfg.q_max == (60.0, 60.0, 50.0)


def test_load_config_missing_path_gives_defaults():
    assert load_config(None) == SystemConfig()


def test_load_config_empty_file(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    assert load_config(str(p)) == SystemConfig()


def test_load_config_warns_when_the_power_floor_exceeds_p_max(tmp_path,
                                                              caplog):
    with caplog.at_level(logging.WARNING, logger="uavlc.config"):
        SystemConfig()  # building a config computes no bound
        assert not caplog.records
        load_config(None)
    # circuit + bias + the least propulsion power, as `uavlc check` reports
    floor = SystemConfig().power_floor()
    assert round(floor, 1) == 946.3
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "946.3 W" in record.getMessage()
    assert "p_max 20 W" in record.getMessage()
    caplog.clear()
    p = tmp_path / "budget.yaml"
    p.write_text(f"p_max: {math.ceil(floor)}\n")
    with caplog.at_level(logging.WARNING, logger="uavlc.config"):
        load_config(str(p))
    assert not caplog.records


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("not_a_field: 1\n")
    with pytest.raises(ValueError):
        load_config(str(p))


def test_load_config_refuses_the_removed_adapt_episodes_key(tmp_path):
    # the adaptation budget is `uavlc adapt --episodes` or the sweep's
    p = tmp_path / "old.yaml"
    p.write_text("adapt_episodes: 20\n")
    with pytest.raises(ValueError,
                       match=r"unknown keys \['adapt_episodes'\]"):
        load_config(str(p))


def test_load_config_rejects_non_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError):
        load_config(str(p))


def test_validation_rejects_bad_values():
    for kw in (dict(noise_var=0.0), dict(n_leds=0), dict(r_min=-1.0),
               dict(q_min=(1.0, 0.0, 0.0), q_max=(1.0, 1.0, 1.0)),
               dict(reward_mode="bogus"), dict(support_fraction=1.0)):
        with pytest.raises(ValueError):
            SystemConfig(**kw)


def test_physics_rules_are_refused_as_config_errors():
    for kw in (dict(half_power_semiangle_deg=90.0),
               dict(fov_semiangle_deg=0.0), dict(fov_semiangle_deg=90.5),
               dict(pd_area_m2=0.0),
               dict(refractive_index=-1.0), dict(n_leds=0),
               dict(dimming_level=1.5), dict(i_low=0.01, i_high=0.01),
               dict(r_min=0.0), dict(p_max=-1.0), dict(rotor_radius=0.0),
               dict(slot_duration=0.0), dict(v_max=-1.0), dict(n_slots=0),
               dict(return_tolerance=-1.0), dict(q_min=(0.0, 0.0)),
               dict(q_max=(9.0, 9.0, 9.0, 9.0)),
               dict(q_min=(0.0, 0.0, 50.0), q_max=(9.0, 9.0, 9.0))):
        with pytest.raises(ValueError, match="^config: "):
            SystemConfig(**kw)


def test_validation_refuses_unusable_learning_fields():
    for name, bad in (("batch_size", 0), ("buffer_capacity", 0),
                      ("hidden_sizes", (8, 0)), ("episodes_per_task", 0),
                      ("meta_task_count", 0), ("lr_actor", -1.0),
                      ("lr_inner", 0.0), ("polyak", 2.0), ("polyak", 0.0),
                      ("inner_steps", -1), ("warmup_steps", -5)):
        with pytest.raises(ValueError,
                           match=f"^config: {name} .*{re.escape(str(bad))}"):
            SystemConfig(**{name: bad})
    cfg = SystemConfig(polyak=1.0, warmup_steps=0, inner_steps=0)
    assert (cfg.polyak, cfg.warmup_steps, cfg.inner_steps) == (1.0, 0, 0)


def test_validation_refuses_non_finite_floats():
    cfg = SystemConfig()
    floats = [f.name for f in dataclasses.fields(cfg)
              if isinstance(getattr(cfg, f.name), float)]
    assert {"p_max", "v_max", "r_min", "noise_var"} <= set(floats)
    for bad in (math.inf, -math.inf, math.nan):
        for name in floats + ["penalty"]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cfg.replace(**{name: bad})
        for name in ("q_min", "q_max"):
            corner = list(getattr(cfg, name))
            corner[2] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cfg.replace(**{name: corner})
    assert cfg.replace(penalty=-5.0).penalty == -5.0


def test_load_config_refuses_yaml_infinity(tmp_path):
    p = tmp_path / "inf.yaml"
    p.write_text("p_max: .inf\n")
    with pytest.raises(ValueError, match="p_max must be finite"):
        load_config(str(p))


def test_dump_round_trips_through_yaml():
    import yaml

    cfg = SystemConfig(n_users=2, r_min=0.7)
    data = yaml.safe_load(cfg.dump())
    assert SystemConfig(**data) == cfg


WRONG_KINDS = [("n_leds", "abc"), ("hidden_sizes", 8), ("p_max", "20"),
               ("observe_pose", 3), ("gamma", True), ("n_slots", 2.5),
               ("q_min", (0.0, 0.0, "10")), ("hidden_sizes", (8.0, 8)),
               ("penalty", "-5"), ("reward_mode", 1)]


@pytest.mark.parametrize("name, bad", WRONG_KINDS)
def test_a_value_of_the_wrong_kind_is_a_config_error(name, bad):
    with pytest.raises(ValueError,
                       match=f"^config: {name} must be .*, got "
                             f"{re.escape(repr(bad))}$"):
        SystemConfig(**{name: bad})


def test_values_of_the_right_kind_are_kept_as_given():
    # the config hash seeds every sweep: an accepted value is not coerced
    # (pinned again when the unread adapt_episodes field left the config)
    assert SystemConfig().config_hash() == "6f70987e4a1380ef"
    cfg = SystemConfig(p_max=2000)
    assert type(cfg.p_max) is int and "p_max: 2000\n" in cfg.dump()
    assert cfg.config_hash() == "665a156f813210ee"
    assert SystemConfig(p_max=2000.0).config_hash() == "093553902619b0f7"
    cfg = SystemConfig(penalty=-5, q_min=[0, 0, 10], hidden_sizes=[8, 8])
    assert (cfg.penalty, cfg.q_min, cfg.hidden_sizes) == (
        -5, (0.0, 0.0, 10.0), (8, 8))


def test_flight_set_holds_the_flight_fields():
    cfg = SystemConfig(slot_duration=0.5, n_slots=7, return_tolerance=2.0)
    flight = cfg.flight([1.0, 2.0, 30.0])
    assert (flight.slot_duration, flight.n_slots, flight.v_max,
            flight.a_max, flight.return_tolerance) == (0.5, 7, 10.0, 6.0,
                                                       2.0)
    for got, want in ((flight.q_min, cfg.q_min), (flight.q_max, cfg.q_max),
                      (flight.q_init, (1.0, 2.0, 30.0))):
        assert got.dtype == float and got.tolist() == list(want)


def test_load_config_logs_only_the_power_floor_warning(tmp_path, caplog):
    with caplog.at_level(logging.DEBUG):
        load_config(None)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    caplog.clear()
    p = tmp_path / "budget.yaml"
    p.write_text("p_max: 1000\n")
    with caplog.at_level(logging.DEBUG):
        load_config(str(p))
    assert not caplog.records
