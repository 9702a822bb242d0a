import argparse
import importlib
import os
import subprocess
import sys
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


CONSISTENCY_CFG = (
    "drift.name = cubic\nschedule.sigma = exp_decay\nschedule.sigma_c = 1.0\n"
    "schedule.sigma_a = 1.0\nconsistency.h_grid = 0.5\n"
    "run.steps = 2000\nrun.paths = 4\nrun.zeta = 1.0\nrun.master_seed = 42\n"
)


def test_consistency_reads_thresholds_like_experiment(tmp_path):
    cfg = tmp_path / "cons.cfg"
    cfg.write_text(CONSISTENCY_CFG)
    verdicts = []
    for over in ([], ["--set", "thresholds.fraction=2.0"]):
        out = tmp_path / str(len(verdicts))
        assert main(["consistency", str(cfg), "--out", str(out)] + over) == 0
        kv = (out / "consistency_report.kv").read_text()
        verdicts.append("row.0.ensemble_consistent_sampled = true" in kv)
    assert verdicts == [True, False]


def test_consistency_zero_steps_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cons.cfg"
    cfg.write_text(CONSISTENCY_CFG)
    assert main(["consistency", str(cfg), "--out", str(tmp_path), "--set", "run.steps=0"]) == 2
    assert "run.steps must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "consistency_report.kv").exists()


def test_zero_eps_min_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.kind = constant\nschedule.c = 1.0\nrun.h = 0.1\n"
                   "classify.eps_min = 0\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path)]) == 2
    assert "epsilon grid must be positive" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_and_signal_unloaded():
    code = "import sys, ssbelab.cli; print(sorted({'scipy.optimize', 'scipy.signal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True).stdout
    assert out.strip() == "[]"


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


def _exits_2_at_step_0(tmp_path, capsys, command, cfg_text, cause):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(cfg_text)
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: path 0 (master_seed 42) failed at step 0: ") and cause in err
    assert "Traceback" not in err
    assert not (tmp_path / "path.csv").exists() and not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_failing_path_exits_2(tmp_path, capsys, command):
    # Path 0's first deviate is -1.365: its step-0 shock overflows to -inf.
    _exits_2_at_step_0(tmp_path, capsys, command, OVERFLOW_CFG, "non-finite shock: [-inf]")


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("c, cause", [
    ("1.7e308", "non-finite shock: [-inf]"),
    # Finite shocks, but path 0's state x* + u = -1.4e200 has a norm the
    # fold cannot square; an x* + u that overflows to inf comes later still.
    ("1e200", "non-finite state norm: inf"),
], ids=["shock", "state"])
def test_linear_drift_overflow_exits_2(tmp_path, capsys, command, c, cause):
    # The affine stage carries inf on without failing, so the fold names it.
    text = OVERFLOW_CFG.replace("cubic", "linear").replace("1.7e308", c)
    _exits_2_at_step_0(tmp_path, capsys, command, text + "drift.lam = 1e-12\n", cause)


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_arctan_far_from_the_origin_completes(tmp_path, command):
    # |x| reaches ~1.7e4, where one ulp (3.6e-12) exceeds tol = 1e-12; the
    # residual floor of four ulps lets path 13's step-819 stage converge.
    text = (ROOT / "configs/scalar_arctan.cfg").read_text().replace("schedule.p = 1.0\n", "")
    cfg = tmp_path / "arctan_constant.cfg"
    cfg.write_text(text.replace("schedule.kind = power", "schedule.kind = constant"))
    over = ["schedule.c=1e3", "run.steps=3000", "run.paths=20", "run.path_index=13"]
    argv = [command, str(cfg), "--out", str(tmp_path)]
    argv += [arg for pair in over for arg in ("--set", pair)]
    assert main(argv) in (0, 1)
    assert (tmp_path / ("path.csv" if command == "simulate" else "ensemble.csv")).exists()


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
