"""Sweep harness: deterministic seeding, paired tasks, CSV idempotence,
the ordered process map and sweep resumption."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import uavlc.harness as harness
from uavlc import ExperimentSpec, RandomPolicy, evaluate
from uavlc.harness import (derive_seed, first_users, parallel_map,
                           run_experiment, worker_count)
from uavlc.env import sample_task

from conftest import small_config, time_limit


def paired_task(cfg, spec, base_hash, seed):
    """The per-unit task draw that `seed_tasks` replaced, kept verbatim as
    the reference: for user-count sweeps the task's users are the first K
    of a superset drawn for the largest swept K."""
    task_seed = derive_seed(base_hash, spec.sweep_var, "task", seed)
    if spec.sweep_var == "K":
        k_max = int(max(spec.sweep_values))
        super_cfg = (cfg if cfg.n_users == k_max
                     else cfg.replace(n_users=k_max))
        rng = np.random.default_rng(task_seed)
        return first_users(sample_task(super_cfg, rng), cfg.n_users)
    rng = np.random.default_rng(task_seed)
    return sample_task(cfg, rng)


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


@pytest.mark.parametrize("var, values", [
    ("K", [1, 4, 2, 3]), ("N", [1, 3, 10]), ("P_max", [500.0, 2000.0]),
    ("R_min", [0.05, 0.1])])
def test_seed_tasks_equal_paired_task_bitwise(var, values):
    cfg = small_config(n_users=3)
    spec = ExperimentSpec(scenario="t", sweep_var=var, sweep_values=values,
                          seeds=3, schemes=["random"], out_path="unused.csv")
    cfgs = [harness._apply_sweep(cfg, var, v) for v in spec.sweep_values]
    tasks = harness.seed_tasks(cfgs, spec, "hash")
    for c in cfgs:
        for seed in range(spec.seeds):
            got = first_users(tasks[seed], c.n_users)
            want = paired_task(c, spec, "hash", seed)
            assert got.user_positions.shape == (c.n_users, 3)
            assert got.user_positions.tobytes() == \
                want.user_positions.tobytes()
            assert got.q_init.tobytes() == want.q_init.tobytes()
            assert got.seed == want.seed
    assert len({t.seed for t in tasks}) == spec.seeds


def test_k_sweep_draws_each_seeds_task_once(tmp_path, monkeypatch):
    draws = []
    original = harness.sample_task

    def counted(cfg, rng):
        draws.append(cfg.n_users)
        return original(cfg, rng)

    monkeypatch.setattr(harness, "sample_task", counted)
    spec = ExperimentSpec(scenario="t", sweep_var="K",
                          sweep_values=[1, 2, 3], seeds=2,
                          schemes=["random", "greedy"],
                          out_path=str(tmp_path / "k.csv"), eval_episodes=1)
    rows = run_experiment(spec, small_config(), workers=1)
    assert len(rows) == 3 * 2 * 2
    assert draws == [3, 3]


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


def test_spec_refuses_fractional_counts():
    for var, values, bad in (("K", [2.5, 3.7], "2.5"), ("N", [4, 4.5], "4.5")):
        with pytest.raises(ValueError, match=f"{var} values .* got {bad}"):
            ExperimentSpec(scenario="t", sweep_var=var, sweep_values=values,
                           seeds=1, schemes=["random"], out_path="x.csv")
    for var, values in (("K", [2, 3.0]), ("P_max", [2.5])):
        ExperimentSpec(scenario="t", sweep_var=var, sweep_values=values,
                       seeds=1, schemes=["random"], out_path="x.csv")


def test_spec_refuses_repeated_sweep_values_and_schemes():
    def spec(values, schemes):
        return ExperimentSpec(scenario="t", sweep_var="R_min",
                              sweep_values=values, seeds=1, schemes=schemes,
                              out_path="x.csv")

    # 1 and 1.0 are one sweep point: they would share the CSV rows
    with pytest.raises(ValueError, match="sweep value 1.0 is repeated"):
        spec([1, 0.5, 1.0], ["greedy"])
    with pytest.raises(ValueError, match="scheme 'greedy' is repeated"):
        spec([1], ["greedy", "random", "greedy"])
    spec([1, 0.5], ["greedy", "random"])


def test_spec_refuses_no_evaluation_and_negative_budgets():
    def spec(**budgets):
        return ExperimentSpec(scenario="t", sweep_var="K", sweep_values=[1],
                              seeds=1, schemes=["random"], out_path="x.csv",
                              **budgets)

    with pytest.raises(ValueError, match="at least one evaluation episode"):
        spec(eval_episodes=0)
    for budget in ("train_episodes", "adapt_episodes", "meta_iterations"):
        with pytest.raises(ValueError, match=f"{budget} must not be "
                                             f"negative, got -1"):
            spec(**{budget: -1})
        spec(**{budget: 0})


def test_evaluate_refuses_zero_episodes(env):
    with pytest.raises(ValueError, match="at least one evaluation episode"):
        evaluate(env, RandomPolicy(env, seed=3), episodes=0, seed=0)


def test_rows_do_not_depend_on_how_sweep_values_are_written(tmp_path):
    def rows(values, path):
        spec = ExperimentSpec(scenario="t", sweep_var="K",
                              sweep_values=values, seeds=1,
                              schemes=["meta-sac"], out_path=str(path),
                              eval_episodes=1, adapt_episodes=1,
                              meta_iterations=1)
        assert [type(v) for v in spec.sweep_values] == [float]
        return run_experiment(spec, small_config(), workers=1)

    assert rows([2], tmp_path / "int.csv") == rows([2.0],
                                                   tmp_path / "float.csv")
    assert ((tmp_path / "int.csv").read_bytes()
            == (tmp_path / "float.csv").read_bytes())


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
    # second run reads the same rows back from the CSV, appends nothing new
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


def test_run_experiment_refuses_a_csv_without_budgets(tmp_path):
    # the header a sweep wrote before it recorded its budgets
    cfg = small_config()
    path = tmp_path / "rows.csv"
    spec = micro_spec(path, schemes=("random",))
    run_experiment(spec, cfg)
    header, rest = path.read_text().split("\n", 1)
    old = header.split(" eval_episodes=")[0]
    assert old == f"# config_hash={cfg.config_hash()} scenario=micro"
    path.write_text(old + "\n" + rest)
    with pytest.raises(harness.ResultFileError,
                       match="holds rows of eval_episodes none, not 1"):
        run_experiment(spec, cfg)
    assert path.read_text() == old + "\n" + rest


def test_greedy_scheme_through_harness(tmp_path):
    cfg = small_config(r_min=0.01, noise_var=1e-22)
    path = tmp_path / "g.csv"
    spec = ExperimentSpec(scenario="g", sweep_var="K", sweep_values=[2],
                          seeds=1, schemes=["greedy"], out_path=str(path),
                          eval_episodes=1)
    rows = run_experiment(spec, cfg)
    assert len(rows) == 1
    assert rows[0].mean_p_tot > 0


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------

def test_worker_count_is_bounded_by_workers_cpus_and_units(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert worker_count(None, 100) == 8
    assert worker_count(3, 100) == 3
    assert worker_count(16, 100) == 8
    assert worker_count(None, 5) == 5
    assert worker_count(None, 0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert worker_count(4, 100) == 1
    with pytest.raises(ValueError, match="at least 1"):
        worker_count(0, 5)


def _late_first(x):
    time.sleep(0.02 * (5 - x))   # earlier units finish later
    return x * x


def test_parallel_map_keeps_input_order():
    assert list(parallel_map(_late_first, range(6), workers=2)) == [
        x * x for x in range(6)]


def test_parallel_map_with_one_worker_runs_in_process():
    lock = threading.Lock()     # cannot be pickled
    out = list(parallel_map(lambda x: (os.getpid(), lock.locked(), x),
                            [1, 2, 3], workers=1))
    assert out == [(os.getpid(), False, x) for x in (1, 2, 3)]


def _fail_at_three(x):
    if x == 3:
        raise KeyError(f"unit {x}")
    return x


def test_parallel_map_raises_a_units_exception_with_its_type():
    for workers in (1, 2):
        got = []
        with pytest.raises(KeyError, match="unit 3"):
            for x in parallel_map(_fail_at_three, range(6), workers=workers):
                got.append(x)
        assert got == [0, 1, 2]


def _own_and_nested_pids(_):
    return os.getpid(), list(parallel_map(lambda _: os.getpid(), range(2),
                                          workers=2))


def test_parallel_map_nested_in_a_worker_runs_in_that_worker():
    results = list(parallel_map(_own_and_nested_pids, range(2), workers=2))
    for own, nested in results:
        assert nested == [own, own]
    if worker_count(2, 2) > 1:
        assert all(own != os.getpid() for own, _ in results)


def test_parallel_map_takes_units_that_cannot_be_pickled():
    units = [(threading.Lock(), x) for x in range(4)]
    with time_limit(30):
        out = list(parallel_map(lambda u: (os.getpid(), u[0].locked(), u[1]),
                                units, workers=2))
    assert [(locked, x) for _, locked, x in out] == [(False, x)
                                                    for x in range(4)]
    if worker_count(2, 2) > 1:
        assert all(pid != os.getpid() for pid, _, _ in out)


@pytest.mark.skipif(worker_count(2, 2) == 1, reason="needs two CPUs")
def test_parallel_map_raises_when_a_worker_dies():
    me = os.getpid()

    def exit_in_a_worker(x):
        if os.getpid() != me:
            os._exit(3)
        return x

    with time_limit(30):
        with pytest.raises(RuntimeError, match="exited without replying"):
            list(parallel_map(exit_in_a_worker, range(4), workers=2))
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# worker counts and resumption
# ---------------------------------------------------------------------------

def resume_spec(path):
    return ExperimentSpec(scenario="resume", sweep_var="R_min",
                          sweep_values=[0.1, 0.2], seeds=2,
                          schemes=["meta-sac", "random", "greedy"],
                          out_path=str(path), eval_episodes=1,
                          adapt_episodes=1, meta_iterations=1)


def test_run_experiment_rows_do_not_depend_on_workers(tmp_path):
    cfg = small_config()
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    rows1 = run_experiment(resume_spec(p1), cfg, workers=1)
    rows2 = run_experiment(resume_spec(p2), cfg, workers=2)
    assert p1.read_bytes() == p2.read_bytes()
    assert rows1 == rows2


def _count_calls(monkeypatch, name, fail_at=None):
    """Count calls of a harness function; optionally raise on one."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise RuntimeError("cut short")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_cut_short_sweep_resumes_to_the_same_bytes(tmp_path, monkeypatch):
    cfg = small_config()
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    rows = run_experiment(resume_spec(whole), cfg, workers=1)
    assert len(rows) == 12

    with monkeypatch.context() as m:
        # the seventh unit raises: the first sweep value's six rows stay
        _count_calls(m, "run_scheme", fail_at=7)
        with pytest.raises(RuntimeError, match="cut short"):
            run_experiment(resume_spec(cut), cfg, workers=1)
    assert cut.read_bytes().count(b"\n") == 2 + 6

    scheme_calls = _count_calls(monkeypatch, "run_scheme")
    meta_calls = _count_calls(monkeypatch, "meta_train_for")
    assert run_experiment(resume_spec(cut), cfg, workers=1) == rows
    assert cut.read_bytes() == whole.read_bytes()
    # only the second value's six units ran, and only its meta-training
    assert [(a[0], a[1].r_min) for a in scheme_calls] == [
        (s, 0.2) for _ in range(2) for s in ("meta-sac", "random", "greedy")]
    assert [a[0].r_min for a in meta_calls] == [0.2]

    scheme_calls.clear()
    meta_calls.clear()
    assert run_experiment(resume_spec(cut), cfg, workers=1) == rows
    assert cut.read_bytes() == whole.read_bytes()
    assert scheme_calls == [] and meta_calls == []


def test_run_experiment_with_one_worker_starts_no_process(tmp_path,
                                                         monkeypatch):
    def fork():
        raise AssertionError("forked with workers=1")

    monkeypatch.setattr(os, "fork", fork)
    spec = resume_spec(tmp_path / "rows.csv")
    spec.sweep_values = [0.1]   # one meta-training, run in this process
    rows = run_experiment(spec, small_config(), workers=1)
    assert len(rows) == 2 * 3


def test_run_experiment_refuses_no_workers_before_writing(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="at least 1"):
        run_experiment(micro_spec(path), small_config(), workers=0)
    assert not path.exists()


def test_run_experiment_refuses_a_partly_written_row(tmp_path):
    cfg = small_config()
    path = tmp_path / "rows.csv"
    spec = micro_spec(path, schemes=("random",))
    run_experiment(spec, cfg, workers=1)
    path.write_bytes(path.read_bytes()[:-5])
    content = path.read_bytes()
    with pytest.raises(ValueError, match="partly written row"):
        run_experiment(spec, cfg, workers=1)
    assert path.read_bytes() == content


def test_run_experiment_refuses_a_row_with_a_non_finite_mean(tmp_path):
    cfg = small_config()
    path = tmp_path / "rows.csv"
    spec = ExperimentSpec(scenario="t", sweep_var="K", sweep_values=[1],
                          seeds=1, schemes=["random"], out_path=str(path),
                          eval_episodes=1)
    run_experiment(spec, cfg, workers=1)
    header = path.read_text().splitlines()[:2]
    path.write_text("\n".join(header + ["random,K,1.0,0,nan,nan,nan,nan"])
                    + "\n")
    content = path.read_bytes()
    with pytest.raises(harness.ResultFileError,
                       match=f"{path} holds a non-finite result in row "
                             f"random,K,1.0,0"):
        run_experiment(spec, cfg, workers=1)
    assert path.read_bytes() == content

