"""Sweep harness: deterministic seeding, paired tasks, CSV idempotence."""

import numpy as np
import pytest

from uavlc import ExperimentSpec, GreedyPolicy, RandomPolicy, VlcUavEnv, evaluate
from uavlc.harness import derive_seed, paired_task, run_experiment
from uavlc.env import sample_task

from conftest import small_config


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed("a", 1, 2.5) == derive_seed("a", 1, 2.5)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)
    assert derive_seed("x") >= 0


def test_evaluate_is_deterministic(env):
    policy = RandomPolicy(env, seed=3)
    s1 = evaluate(env, policy, episodes=2, seed=0)
    policy = RandomPolicy(env, seed=3)
    s2 = evaluate(env, policy, episodes=2, seed=0)
    assert s1 == s2
    assert set(s1) == {"mean_p_tot", "mean_sum_rate", "mean_ee",
                       "feasibility_fraction"}


def test_paired_tasks_nest_user_supersets():
    cfg = small_config(n_users=2)
    spec = ExperimentSpec(scenario="t", sweep_var="K",
                          sweep_values=[1, 2, 3], seeds=1,
                          schemes=["random"], out_path="unused.csv")
    t2 = paired_task(cfg, spec, "hash", seed=0)
    t3 = paired_task(cfg.replace(n_users=3), spec, "hash", seed=0)
    assert np.array_equal(t2.user_positions, t3.user_positions[:2])
    assert np.array_equal(t2.q_init, t3.q_init)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="t", sweep_var="bogus", sweep_values=[1],
                       seeds=1, schemes=["random"], out_path="x.csv")
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="t", sweep_var="K", sweep_values=[],
                       seeds=1, schemes=["random"], out_path="x.csv")
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="t", sweep_var="K", sweep_values=[1],
                       seeds=1, schemes=["nope"], out_path="x.csv")


def micro_spec(path, schemes=("random", "greedy")):
    return ExperimentSpec(scenario="micro", sweep_var="R_min",
                          sweep_values=[0.1, 0.2], seeds=2,
                          schemes=list(schemes), out_path=str(path),
                          eval_episodes=1, train_episodes=1,
                          adapt_episodes=1, meta_iterations=1)


def test_run_experiment_writes_and_is_idempotent(tmp_path):
    cfg = small_config()
    path = tmp_path / "rows.csv"
    rows1 = run_experiment(micro_spec(path), cfg)
    content1 = path.read_text()
    assert content1.startswith("# config_hash=")
    assert len(rows1) == 2 * 2 * 2  # values x seeds x schemes
    # second run recomputes identical rows but appends nothing new
    rows2 = run_experiment(micro_spec(path), cfg)
    assert path.read_text() == content1
    for r1, r2 in zip(rows1, rows2):
        assert r1 == r2


def test_run_experiment_rows_regenerate_bit_identically(tmp_path):
    cfg = small_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(micro_spec(p1), cfg)
    run_experiment(micro_spec(p2), cfg)
    assert p1.read_text() == p2.read_text()


def test_run_experiment_refuses_a_csv_of_another_config(tmp_path):
    cfg = small_config()
    path = tmp_path / "rows.csv"
    spec = micro_spec(path, schemes=("random",))
    run_experiment(spec, cfg)
    content = path.read_text()
    with pytest.raises(ValueError, match="config hash"):
        run_experiment(spec, cfg.replace(p_max=3 * cfg.p_max))
    assert path.read_text() == content


def test_greedy_scheme_through_harness(tmp_path):
    cfg = small_config(r_min=0.01, noise_var=1e-22)
    path = tmp_path / "g.csv"
    spec = ExperimentSpec(scenario="g", sweep_var="K", sweep_values=[2],
                          seeds=1, schemes=["greedy"], out_path=str(path),
                          eval_episodes=1)
    rows = run_experiment(spec, cfg)
    assert len(rows) == 1
    assert rows[0].mean_p_tot > 0
