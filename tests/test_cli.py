import argparse
import importlib
from pathlib import Path

import pytest

from ssbelab.cli import _load, main

ROOT = Path(__file__).resolve().parent.parent

CFG = """
drift.name = cubic
drift.d = 1
schedule.kind = power
schedule.c = 1.0
schedule.p = 1.0
run.h = 0.1
run.steps = 3000
run.paths = 3
run.zeta = 1.0
run.master_seed = 42
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CFG)
    return str(path)


def test_missing_config_names_path(capsys):
    rc = main(["classify", "/nope/missing.cfg"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "/nope/missing.cfg" in err


def test_classify_constant_schedule(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.kind = constant\nschedule.c = 1.0\nrun.h = 0.1\n"
                   "classify.truncation = 2000\n")
    rc = main(["classify", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "regime: C" in out
    kv = (tmp_path / "regime_report.kv").read_text()
    assert "regime = C" in kv
    assert (tmp_path / "regime_report.txt").exists()


def test_simulate_writes_path_csv(cfg_file, tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", cfg_file, "--out", str(out), "--set", "run.steps=50"])
    assert rc == 0
    text = (out / "path.csv").read_text()
    assert "# master_seed: 42" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "n,X_1,Xstar_1,U_1"
    assert len(rows) == 52


def test_simulate_zero_noise_matches_halving(tmp_path, capsys):
    cfg = tmp_path / "z.cfg"
    cfg.write_text(
        "drift.name = linear\ndrift.lam = 1.0\nschedule.kind = zero\n"
        "run.h = 1.0\nrun.steps = 6\nrun.zeta = 1.0\nrun.master_seed = 0\n"
    )
    rc = main(["simulate", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = [l.split(",") for l in (tmp_path / "path.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    xs = [float(r[1]) for r in rows]
    assert xs == [2.0**-n for n in range(7)]


def test_experiment_and_exit_code(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["experiment", cfg_file, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "predicted regime: A" in text
    assert (out / "ensemble.csv").exists()
    assert (out / "ensemble_report.kv").exists()


def test_experiment_seed_override_changes_rows(cfg_file, tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
    main(["experiment", cfg_file, "--out", str(out1)])
    main(["experiment", cfg_file, "--out", str(out2), "--seed", "43"])
    main(["experiment", cfg_file, "--out", str(out3)])
    body = lambda p: [l for l in (p / "ensemble.csv").read_text().splitlines()
                      if not l.startswith("#")]
    assert body(out1) != body(out2)
    assert body(out1) == body(out3)


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_non_finite_zeta_exits_2(cfg_file, tmp_path, capsys, command):
    rc = main([command, cfg_file, "--out", str(tmp_path), "--set", "run.zeta=nan"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_affine_command(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("affine.A = -1.0,2.0;-2.0,-3.0\nrun.h = 0.2\n")
    rc = main(["affine", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "spectral_radius_C" in out and "lyapunov_residual" in out
    assert (tmp_path / "affine_report.txt").exists()


def test_consistency_command(tmp_path, capsys):
    cfg = tmp_path / "cons.cfg"
    cfg.write_text(
        "drift.name = cubic\nschedule.sigma = exp_decay\nschedule.sigma_c = 1.0\n"
        "schedule.sigma_a = 1.0\nconsistency.h_grid = 0.5,1.0\n"
        "run.steps = 2000\nrun.paths = 4\nrun.zeta = 1.0\nrun.master_seed = 42\n"
    )
    rc = main(["consistency", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    kv = (tmp_path / "consistency_report.kv").read_text()
    assert "regime_label = A" in kv


def test_consistency_zeta_of_the_wrong_length_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cons3.cfg"
    cfg.write_text(
        "drift.name = cubic\ndrift.d = 3\nrun.r = 3\nschedule.sigma = exp_decay\n"
        "schedule.sigma_c = 1.0\nschedule.sigma_a = 1.0\nconsistency.h_grid = 0.5\n"
        "run.steps = 50\nrun.paths = 2\nrun.zeta = 5.0,-2.0\nrun.master_seed = 42\n"
    )
    rc = main(["consistency", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "shape (3,)" in capsys.readouterr().err
    assert not (tmp_path / "consistency_report.kv").exists()


def test_selftest_runs_clean(capsys):
    rc = main(["selftest"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out


OVERFLOW_CFG = """
drift.name = cubic
schedule.kind = constant
schedule.c = 1.7e308
run.h = 1
run.steps = 20
run.paths = 4
run.zeta = 1.0
run.master_seed = 42
"""


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_failing_path_exits_2(tmp_path, capsys, command):
    # The shock overflows to inf at step 0, so the step-1 stage cannot converge.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG)
    rc = main([command, str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if command == "experiment":
        assert "path 0 (master_seed 42) failed at step 1" in err


def _bench_overrides(monkeypatch):
    """The --set pairs the benchmark passes, per config file, smoke runs included."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    pairs = {}
    for name in workloads.WORKLOADS:
        for step in workloads.steps(name):
            for smoke in (False, True):
                pairs.setdefault(step.config, []).extend(step.overrides(smoke))
    return pairs


def test_shipped_configs_load_with_benchmark_overrides(monkeypatch):
    pairs = _bench_overrides(monkeypatch)
    paths = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
    assert len(paths) == 9
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        args = argparse.Namespace(config=str(path), overrides=pairs.get(rel, []), seed=42)
        assert _load(args)["run.master_seed"] == "42"


@pytest.mark.parametrize("where", ["file", "set"])
def test_unknown_key_exits_2(tmp_path, capsys, where):
    cfg = tmp_path / "typo.cfg"
    text = "schedule.kind = constant\nschedule.c = 1.0\nrun.h = 0.1\n"
    argv = ["classify", str(cfg), "--out", str(tmp_path)]
    if where == "file":
        text += "run.stpes = 10\n"
    else:
        argv += ["--set", "run.stpes=10"]
    cfg.write_text(text)
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "'run.stpes'" in err and "did you mean 'run.steps'" in err
    assert not (tmp_path / "regime_report.kv").exists()
