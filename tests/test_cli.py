"""Command-line interface smoke tests."""

import csv

import pytest

from uavlc.cli import main


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


def test_sweep_writes_csv(cfg_path, tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", cfg_path, "--var", "R_min",
          "--values", "0.1", "--seeds", "1", "--scheme", "random",
          "--eval-episodes", "1", "--out", str(out)])
    text = out.read_text()
    assert text.startswith("# config_hash=")
    assert "random" in text


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
