"""Command-line interface smoke tests."""

import csv
import errno
import os
import subprocess
import sys

import numpy as np
import pytest

import uavlc
import uavlc.cli
from uavlc import MetaSac, VlcUavEnv, load_config, sample_task
from uavlc.cli import main
from uavlc.harness import derive_seed


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("\n".join([
        "n_leds: 4",
        "n_users: 2",
        "n_slots: 5",
        "r_min: 0.1",
        "p_max: 2000.0",
        "noise_var: 1.0e-18",
        "hidden_sizes: [8, 8]",
        "batch_size: 16",
        "warmup_steps: 10",
        "q_max: [50.0, 50.0, 40.0]",
    ]) + "\n")
    return str(p)


def test_check_subcommand_passes(cfg_path, capsys):
    main(["check", "--config", cfg_path, "--seed", "0"])
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_check_fails_the_default_config(capsys):
    # hover alone draws ~1438 W and the least propulsion power over speeds
    # up to v_max ~945 W, against the default p_max of 20 W
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--seed", "0"])
    assert exit_info.value.code == 1
    out = capsys.readouterr().out
    fail = [line for line in out.splitlines() if "[FAIL]" in line]
    assert len(fail) == 1 and "P_Tot lower bound 946.3 W" in fail[0]


def test_simulate_writes_trace(cfg_path, tmp_path):
    out = tmp_path / "trace.csv"
    main(["simulate", "--config", cfg_path, "--seed", "1",
          "--scheme", "greedy", "--out", str(out)])
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert "p_total" in rows[0]


def test_train_and_eval_round_trip(cfg_path, tmp_path, capsys):
    ckpt = tmp_path / "agent.npz"
    main(["train", "--config", cfg_path, "--seed", "2", "--episodes", "2",
          "--out", str(ckpt)])
    assert ckpt.exists()
    main(["eval", "--config", cfg_path, "--seed", "2", "--scheme", "agent",
          "--checkpoint", str(ckpt), "--episodes", "1"])
    out = capsys.readouterr().out
    assert "mean_p_tot" in out


def test_meta_train_and_adapt_round_trip(cfg_path, tmp_path, capsys):
    meta_ckpt, agent_ckpt = tmp_path / "meta.npz", tmp_path / "agent.npz"
    main(["meta-train", "--config", cfg_path, "--seed", "3",
          "--iterations", "1", "--out", str(meta_ckpt)])
    main(["adapt", "--config", cfg_path, "--seed", "3", "--episodes", "1",
          "--checkpoint", str(meta_ckpt), "--out", str(agent_ckpt)])
    assert agent_ckpt.exists()
    assert "meta-trained 1 iterations" in capsys.readouterr().out


def test_checkpoints_are_written_to_the_path_given(cfg_path, tmp_path,
                                                  capsys):
    # np.savez appends ".npz" to a file name without it
    agent_ckpt, meta_ckpt = tmp_path / "agent.ckpt", tmp_path / "meta.ckpt"
    adapted_ckpt = tmp_path / "adapted.ckpt"
    main(["train", "--config", cfg_path, "--seed", "2", "--episodes", "2",
          "--out", str(agent_ckpt)])
    main(["eval", "--config", cfg_path, "--seed", "2", "--scheme", "agent",
          "--checkpoint", str(agent_ckpt), "--episodes", "1"])
    main(["meta-train", "--config", cfg_path, "--seed", "3",
          "--iterations", "1", "--workers", "1", "--out", str(meta_ckpt)])
    main(["adapt", "--config", cfg_path, "--seed", "3", "--episodes", "1",
          "--checkpoint", str(meta_ckpt), "--out", str(adapted_ckpt)])
    out = capsys.readouterr().out
    for ckpt in (agent_ckpt, meta_ckpt, adapted_ckpt):
        assert f"checkpoint -> {ckpt}\n" in out
    assert "mean_p_tot" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "adapted.ckpt", "agent.ckpt", "cfg.yaml", "meta.ckpt"]


@pytest.mark.parametrize("scheme", ["greedy", "random"])
@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_fixed_scheme_with_a_checkpoint_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, command, scheme):
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg_path, "--scheme", scheme,
              "--checkpoint", str(tmp_path / "none.npz")]
             + (["--out", str(out)] if command == "simulate" else []))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"uavlc {command}: error: --scheme {scheme} takes no --checkpoint"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["eval"], ["eval", "--scheme", "agent"],
    ["simulate", "--scheme", "agent", "--out", "unused.csv"]])
def test_agent_scheme_without_checkpoint_is_a_usage_error(cfg_path, capsys,
                                                          command):
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--config", cfg_path])
    assert exit_info.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_refused_config_file_is_a_one_line_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("n_leds: 4\nbogus_key: 1\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--config", str(bad)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (f"uavlc check: error: config {bad}: "
                                    f"unknown keys ['bogus_key']")


@pytest.mark.parametrize("line, name", [
    ("n_leds: abc", "n_leds"), ("hidden_sizes: 8", "hidden_sizes"),
    ("p_max: '20'", "p_max"), ("observe_pose: 3", "observe_pose"),
    ("gamma: true", "gamma"), ("n_slots: 2.5", "n_slots"),
    ("return_tolerance: -1", "return_tolerance")])
def test_a_refused_config_value_is_a_one_line_usage_error(tmp_path, capsys,
                                                          line, name):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"n_leds: 4\n{line}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--config", str(bad)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc check: error: config: {name} ")


def test_adapt_refuses_a_plain_agent_checkpoint(cfg_path, tmp_path, capsys):
    ckpt = tmp_path / "agent.npz"
    main(["train", "--config", cfg_path, "--seed", "2", "--episodes", "1",
          "--out", str(ckpt)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["adapt", "--config", cfg_path, "--checkpoint", str(ckpt),
              "--out", str(tmp_path / "adapted.npz")])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc adapt: error: {ckpt} holds no "
                          f"meta-learner state")
    assert not (tmp_path / "adapted.npz").exists()


def agent_command(command, tmp_path):
    """`eval` or `simulate` of the agent scheme, its output in tmp_path."""
    out = str(tmp_path / "trace.csv")
    return [command, "--scheme", "agent"] + (
        ["--out", out] if command == "simulate" else [])


@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_missing_agent_checkpoint_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, command):
    missing = tmp_path / "none.npz"
    with pytest.raises(SystemExit) as exit_info:
        main(agent_command(command, tmp_path)
             + ["--config", cfg_path, "--checkpoint", str(missing)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc {command}: error: ")
    assert str(missing) in err


@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_agent_checkpoint_of_another_config_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, command):
    ckpt = tmp_path / "agent.npz"
    main(["train", "--config", cfg_path, "--episodes", "1",
          "--out", str(ckpt)])
    other = tmp_path / "other.yaml"
    with open(cfg_path) as f:
        other.write_text(f.read().replace("r_min: 0.1", "r_min: 0.2"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(agent_command(command, tmp_path)
             + ["--config", str(other), "--checkpoint", str(ckpt)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc {command}: error: checkpoint config_hash ")
    assert not (tmp_path / "trace.csv").exists()


def run_cli(*args):
    """`uavlc` in a fresh interpreter, with logging as a user sees it."""
    src = os.path.dirname(os.path.dirname(uavlc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "uavlc.cli", *args],
                          capture_output=True, text=True, env=env)


def test_stderr_holds_only_the_power_floor_warning(cfg_path):
    done = run_cli("check")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "config: P_Tot lower bound 946.3 W exceeds p_max 20 W; C2 fails "
        "in every slot"]
    done = run_cli("check", "--config", cfg_path)
    assert done.returncode == 0 and done.stderr == ""


def test_meta_train_prints_and_saves_what_its_own_recipe_did(cfg_path,
                                                             tmp_path,
                                                             capsys):
    # the steps `uavlc meta-train` ran itself before it called
    # `harness.meta_train_for`, kept verbatim
    cfg, seed = load_config(cfg_path), 3
    probe = VlcUavEnv(cfg, sample_task(
        cfg, np.random.default_rng(derive_seed("task", seed))))
    meta = MetaSac(cfg, probe.obs_dim, probe.action_dim, seed=seed)
    rng = np.random.default_rng(derive_seed("meta-tasks", seed))
    history = meta.meta_train(lambda: sample_task(cfg, rng), 2)
    ref = tmp_path / "ref.npz"
    meta.save(str(ref))

    out = tmp_path / "meta.npz"
    main(["meta-train", "--config", cfg_path, "--seed", str(seed),
          "--iterations", "2", "--out", str(out)])
    assert capsys.readouterr().out == (
        f"meta-trained 2 iterations on {cfg.meta_task_count} tasks; "
        f"checkpoint -> {out}\nfinal query losses: {history[-1]}\n")
    assert out.read_bytes() == ref.read_bytes()


def test_meta_train_checkpoint_does_not_depend_on_workers(cfg_path,
                                                         tmp_path):
    arrays = []
    for workers in ("1", "2"):
        out = tmp_path / f"meta{workers}.npz"
        main(["meta-train", "--config", cfg_path, "--seed", "3",
              "--iterations", "2", "--workers", workers, "--out", str(out)])
        with np.load(out) as data:
            arrays.append(dict(data))
    assert arrays[0].keys() == arrays[1].keys()
    for key in arrays[0]:
        assert np.array_equal(arrays[0][key], arrays[1][key]), key


@pytest.mark.parametrize("command", [
    ["meta-train", "--iterations", "1"],
    ["sweep", "--var", "K", "--values", "1", "--seeds", "1", "--scheme",
     "random"]])
def test_workers_below_one_is_a_one_line_usage_error(cfg_path, tmp_path,
                                                     capsys, monkeypatch,
                                                     command):
    def step(env, raw):
        raise AssertionError("stepped before refusing --workers")

    monkeypatch.setattr(VlcUavEnv, "step", step)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--config", cfg_path, "--workers", "0",
                        "--out", str(out)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == (f"uavlc {command[0]}: error: workers must be at least 1, "
                   f"got 0")
    assert not out.exists()


def test_refused_sweep_spec_is_a_one_line_usage_error(cfg_path, tmp_path,
                                                      capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", cfg_path, "--var", "K", "--values",
              "2.5", "--seeds", "1", "--scheme", "random", "--out",
              str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == ("uavlc sweep: error: K values must be "
                                    "whole numbers, got 2.5")
    assert not out.exists()


@pytest.mark.parametrize("var, value, message", [
    ("K", "0", "config: need at least one user"),
    ("R_min", "-1", "config: r_min and p_max must be positive"),
], ids=["K-0", "R_min-negative"])
def test_sweep_value_making_an_invalid_config_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, var, value, message):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--config", cfg_path, "--var", var, "--values", value,
              "--seeds", "1", "--scheme", "greedy", "--workers", "1",
              "--out", str(out)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"uavlc sweep: error: {message}"
    assert not out.exists()


def test_a_fault_inside_a_run_keeps_its_traceback(cfg_path, tmp_path,
                                                  monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("fault inside the run")

    monkeypatch.setattr(uavlc.cli, "run_experiment", fail)
    with pytest.raises(ValueError, match="fault inside the run"):
        main(["sweep", "--config", cfg_path, "--var", "K", "--values", "1",
              "--seeds", "1", "--scheme", "random",
              "--out", str(tmp_path / "sweep.csv")])


def test_sweep_writes_csv(cfg_path, tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", cfg_path, "--var", "R_min",
          "--values", "0.1", "--seeds", "1", "--scheme", "random",
          "--eval-episodes", "1", "--out", str(out)])
    text = out.read_text()
    assert text.startswith("# config_hash=")
    assert "random" in text


def test_sweep_csv_does_not_depend_on_workers(cfg_path, tmp_path):
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}.csv"
        main(["sweep", "--config", cfg_path, "--var", "K",
              "--values", "1", "2", "--seeds", "2",
              "--scheme", "greedy", "random", "--eval-episodes", "1",
              "--workers", workers, "--out", str(out)])
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == 2 + 2 * 2 * 2


def test_paper_literal_flag(cfg_path, tmp_path):
    out = tmp_path / "trace.csv"
    main(["simulate", "--config", cfg_path, "--seed", "1",
          "--scheme", "random", "--paper-literal", "--out", str(out)])
    with open(out) as f:
        rows = list(csv.DictReader(f))
    # paper-literal mode rewards infeasible slots with exactly zero
    for r in rows:
        if r["feasible"] == "0":
            assert float(r["reward"]) == 0.0


@pytest.mark.parametrize("command", [
    ["sweep", "--var", "K", "--values", "1", "--scheme", "random",
     "--seeds", "1", "--eval-episodes", "0"],
    ["eval", "--scheme", "random", "--episodes", "0"],
    ["adapt", "--checkpoint", "unused.npz", "--episodes", "0"],
    ["meta-train", "--iterations", "0"],
])
def test_no_evaluation_episode_is_a_one_line_usage_error(cfg_path, tmp_path,
                                                        capsys, command):
    out = tmp_path / "out"
    argv = command + ["--config", cfg_path]
    if command[0] != "eval":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc {command[0]}: error: ")
    assert "at least" in err and "got 0" in err
    assert not out.exists()


def test_train_refuses_no_episode_and_writes_no_file(cfg_path, tmp_path,
                                                     capsys, monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("trained before refusing --episodes")

    monkeypatch.setattr(uavlc.cli, "train_sac", train)
    out = tmp_path / "agent.npz"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--config", cfg_path, "--episodes", "0",
              "--out", str(out)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == "uavlc train: error: --episodes must be at least 1, got 0"
    assert not out.exists()


def _sweep_argv(cfg_path, out):
    return ["sweep", "--config", cfg_path, "--var", "K", "--values", "1",
            "--seeds", "1", "--scheme", "random", "--eval-episodes", "1",
            "--workers", "1", "--out", str(out)]


@pytest.mark.parametrize("spoil, message", [
    (lambda text: text.replace("config_hash=", "config_hash=0"),
     "holds rows of config hash 0"),
    (lambda text: text[:-5], "ends in a partly written row; remove it"),
    (lambda text: "\n".join(text.splitlines()[:2]
                            + ["random,K,1.0,0,nan,nan,nan,nan"]) + "\n",
     "holds a non-finite result in row random,K,1.0,0; remove that row"),
], ids=["other-config", "partly-written-row", "nan-row"])
def test_refused_result_file_is_a_one_line_usage_error(cfg_path, tmp_path,
                                                       capsys, spoil,
                                                       message):
    out = tmp_path / "sweep.csv"
    main(_sweep_argv(cfg_path, out))
    out.write_text(spoil(out.read_text()))
    content = out.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(_sweep_argv(cfg_path, out))
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"uavlc sweep: error: {out} ")
    assert message in err
    assert out.read_bytes() == content


@pytest.mark.parametrize("budget", ["eval-episodes", "train-episodes",
                                    "adapt-episodes", "meta-iterations"])
def test_result_file_of_other_budgets_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, budget):
    out = tmp_path / "sweep.csv"
    main(_sweep_argv(cfg_path, out))
    content = out.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(_sweep_argv(cfg_path, out) + [f"--{budget}", "7"])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    name = budget.replace("-", "_")
    assert err.startswith(f"uavlc sweep: error: {out} holds rows of {name} ")
    assert err.endswith(", not 7; write this sweep to another file")
    assert out.read_bytes() == content


def test_result_file_that_cannot_be_opened_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys):
    out = tmp_path / "missing" / "sweep.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(_sweep_argv(cfg_path, out))
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == (f"uavlc sweep: error: {out} cannot be opened as a result "
                   f"file: {os.strerror(errno.ENOENT)}")


@pytest.mark.parametrize("lines, message", [
    (["buffer_capacity: 1", "batch_size: 1", "warmup_steps: 0"],
     "cannot split a buffer of 1 rows into support and query sets; need at "
     "least 2"),
], ids=["buffer-too-small-to-split"])
@pytest.mark.parametrize("command", [
    ["meta-train", "--iterations", "1"],
    ["sweep", "--var", "K", "--values", "2", "--scheme", "meta-sac",
     "--seeds", "1", "--workers", "1"],
], ids=["meta-train", "sweep"])
def test_config_meta_training_cannot_run_is_a_one_line_usage_error(
        cfg_path, tmp_path, capsys, monkeypatch, lines, message, command):
    def sample(*args, **kwargs):
        raise AssertionError("drew a task before refusing the config")

    monkeypatch.setattr(uavlc.harness, "sample_task", sample)
    bad = tmp_path / "bad.yaml"
    text = open(cfg_path).read().replace("warmup_steps: 10\n", "")
    bad.write_text(text + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--config", str(bad), "--out", str(out)])
    assert exit_info.value.code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"uavlc {command[0]}: error: {message}"
    assert not out.exists()
