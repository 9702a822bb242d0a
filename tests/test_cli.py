import importlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ssbelab.cli import USAGE, _load, main
from ssbelab.config import build_drift, build_run, build_schedule

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


PLAIN = ["classify", "configs/regime_b.cfg", "--out", "<out>", "--set", "classify.truncation=2000",
         "--set", "run.steps=100", "--seed", "7"]


@pytest.mark.parametrize("argv", [
    ["classify", "--out", "<out>", "--set", "classify.truncation=2000", "--seed", "7", "configs/regime_b.cfg",
     "--set", "run.steps=100"],
    ["classify", "--seed", "7", "configs/regime_b.cfg", "--set=classify.truncation=2000", "--out=<out>",
     "--set=run.steps=100"],
    ["classify", "configs/regime_b.cfg", "--set", "classify.truncation=2000", "--set", "run.steps=50",
     "--seed=3", "--out", "<out>", "--set", "run.steps=100", "--seed=7"],
], ids=["flags_around_the_config", "equals_forms", "repeated_flags"])
def test_every_accepted_form_writes_what_the_plain_form_writes(monkeypatch, tmp_path, capsys, argv):
    # The last --seed and --out win, and every --set applies in order.
    monkeypatch.chdir(ROOT)
    texts = []
    for words, out in ((PLAIN, tmp_path / "plain"), (argv, tmp_path / "form")):
        assert main([w.replace("<out>", str(out)) for w in words]) == 0
        texts.append([capsys.readouterr().out] + [(out / f).read_text() for f in sorted(os.listdir(out))])
    assert texts[0] == texts[1] and len(texts[0]) == 3 and "config.run.master_seed = 7" in texts[0][1]


@pytest.mark.parametrize("argv, message", [
    ([], "missing command"),
    (["simulat", "configs/regime_b.cfg", "--out", "<out>"], "unknown command 'simulat'"),
    (["--out", "<out>", "classify", "configs/regime_b.cfg"], "unknown command '--out'"),
    (["classify", "--out", "<out>"], "classify needs a config file"),
    (["classify", "configs/regime_b.cfg", "configs/regime_a.cfg", "--out", "<out>"],
     "unexpected second config 'configs/regime_a.cfg'"),
    (["classify", "configs/regime_b.cfg", "--out", "<out>", "--sett", "x"], "unknown flag '--sett'"),
    (["classify", "configs/regime_b.cfg", "--ou", "<out>"], "unknown flag '--ou'"),
    (["classify", "configs/regime_b.cfg", "-o", "<out>"], "unknown flag '-o'"),
    (["classify", "configs/regime_b.cfg", "--out", "<out>", "--", "x"], "unknown flag '--'"),
    (["classify", "configs/regime_b.cfg", "--out", "<out>", "--set"], "--set needs a value"),
    (["classify", "configs/regime_b.cfg", "--out", "--seed", "7"], "--out needs a value"),
    (["classify", "configs/regime_b.cfg", "--out", "-dir"], "--out needs a value"),
    (["classify", "configs/regime_b.cfg", "--out", "<out>", "--seed", "seven"],
     "--seed needs an integer, got 'seven'"),
    (["classify", "configs/regime_b.cfg", "--out", "<out>", "--seed=1.5"], "--seed needs an integer, got '1.5'"),
    (["selftest", "configs/regime_b.cfg"], "selftest takes no arguments"),
    (["selftest", "--out", "<out>"], "selftest takes no arguments"),
], ids=["no_command", "unknown_command", "flag_before_command", "no_config", "second_config", "unknown_flag",
        "abbreviated_flag", "short_flag", "double_dash", "flag_without_value", "flag_before_flag",
        "dash_value", "seed_word", "seed_float",
        "selftest_config", "selftest_flag"])
def test_a_malformed_line_exits_2_before_reading_or_writing(monkeypatch, tmp_path, capsys, argv, message):
    # Each config named here exists, so an error about the line itself shows that none was read;
    # the working directory and $SSBELAB_OUT, where output goes without --out, stay empty.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SSBELAB_OUT", str(tmp_path / "env"))
    words = [w.replace("<out>", str(tmp_path / "out")).replace("configs/", f"{ROOT}/configs/") for w in argv]
    assert main(words) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{USAGE}error: {message.replace('configs/', f'{ROOT}/configs/')}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["classify", "-h"], ["experiment", "configs/regime_c.cfg",
                                  "--out", "<out>", "--help"], ["selftest", "--help"], ["frob", "-h"]])
def test_help_prints_the_usage_and_exits_0(tmp_path, capsys, argv):
    assert main([w.replace("<out>", str(tmp_path / "out")) for w in argv]) == 0
    assert capsys.readouterr() == (USAGE, "")
    assert USAGE.startswith("usage: ssbelab {simulate,classify,affine,experiment,consistency} <config>")
    assert list(tmp_path.iterdir()) == []


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


def test_zero_schedule_rejects_parameters(tmp_path, capsys):
    cfg = tmp_path / "z.cfg"
    cfg.write_text("schedule.kind = zero\nschedule.c = 0.5\nrun.h = 0.1\n")
    rc = main(["classify", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unexpected schedule params: ['c']" in capsys.readouterr().err


def test_classify_rejects_a_non_finite_table(tmp_path, capsys):
    # The inf row would otherwise count as a 0.5 term of S.
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{n},{'inf' if n == 70 else 0.1}\n" for n in range(2000)))
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"schedule.kind = tabulated\nschedule.path = {table}\nrun.h = 0.1\n")
    rc = main(["classify", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "row n=70 is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "regime_report.kv").exists()


@pytest.mark.parametrize("rows", [1, 2])
def test_classify_a_tiny_table(tmp_path, capsys, rows):
    # The truncation is clamped to the table; the norm-trend probe stays inside it.
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{n},1.0\n" for n in range(rows)))
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"schedule.kind = tabulated\nschedule.path = {table}\nrun.h = 0.1\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "regime: C" in out and f"truncation clamped to the {rows}-row table" in out


@pytest.mark.parametrize("text, message", [
    ("0,0.1\n1,abc\n", "could not convert string 'abc'"),
    ("0,0.1\n1,0.1,0.2\n", "the number of columns changed from 2 to 3"),
    ("", "tabulated schedule needs columns"),
    (None, "No such file or directory"),
], ids=["non_numeric", "ragged", "empty", "missing"])
def test_classify_rejects_a_malformed_table(tmp_path, capsys, text, message):
    table = tmp_path / "table.csv"
    if text is not None:
        table.write_text(text)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"schedule.kind = tabulated\nschedule.path = {table}\nrun.h = 0.1\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "regime_report.kv").exists()


def test_classify_fails_on_a_non_finite_envelope(tmp_path, capsys):
    # sigma_a = 1e308 is finite, but the integrand a / log(b + t) overflows
    # to inf on every point of every cell.
    cfg = tmp_path / "q.cfg"
    cfg.write_text("schedule.kind = sigma_cell_rms\nschedule.sigma = inverse_log_t\n"
                   "schedule.sigma_a = 1e308\nschedule.sigma_b = 3.0\nrun.h = 0.1\n")
    rc = main(["classify", str(cfg), "--out", str(tmp_path / "out"),
               "--set", "classify.truncation=2000"])
    assert rc == 2
    assert "cell-rms quadrature failed on cell n=0: " in capsys.readouterr().err


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
    for over in ([], ["--set", "thresholds.converge=1e-300"]):
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
    assert "classify.eps_min must be a finite number > 0, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("pair, message", [
    ("classify.truncation=-1", "classify.truncation must be >= 0, got -1"),
    ("classify.eps_min=nan", "classify.eps_min must be a finite number > 0, got nan"),
    ("classify.eps_max=inf", "classify.eps_max must be a finite number > 0, got inf"),
    # eps_min above the default eps_max named neither bound.
    ("classify.eps_min=20", "eps_min <= eps_max, got eps_min = 20.0 and eps_max = 10.0"),
], ids=["truncation", "eps_min", "eps_max", "eps_order"])
def test_bad_classify_key_exits_2(tmp_path, capsys, pair, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.kind = power\nschedule.c = 1.0\nschedule.p = 1.0\nrun.h = 0.1\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path), "--set", pair]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "regime_report.kv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, text, message", [
    ("classify", "schedule.kind = power\nschedule.c = {}\nschedule.p = 1.0", "power schedule needs a finite c"),
    ("classify", "schedule.kind = power\nschedule.p = {}", "power schedule needs a finite p"),
    ("classify", "schedule.kind = constant\nschedule.c = {}", "constant schedule needs a finite c"),
    ("classify", "schedule.kind = geometric\nschedule.c = {}\nschedule.rho = 0.5",
     "geometric schedule needs a finite c"),
    ("classify", "schedule.kind = inverse_log\nschedule.a = {}", "inverse_log schedule needs a finite a"),
    ("classify", "schedule.kind = inverse_log\nschedule.a = 2.0\nschedule.b = {}",
     "inverse_log schedule needs a finite b"),
    ("simulate", "drift.name = linear\ndrift.lam = {}\nschedule.kind = zero",
     "linear drift requires a finite lam > 0"),
    ("simulate", "drift.name = saturating\ndrift.c = {}\nschedule.kind = zero",
     "saturating drift requires a finite c > 0"),
], ids=["power_c", "power_p", "constant_c", "geometric_c", "inverse_log_a", "inverse_log_b",
        "linear_lam", "saturating_c"])
def test_non_finite_family_parameter_exits_2(tmp_path, capsys, command, text, message, value):
    # NaN passes a `c <= 0` check: classify read such a schedule as regime A.
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(text.format(value) + "\nrun.h = 0.1\nrun.steps = 10\nrun.zeta = 1.0\n")
    assert main([command, str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{message}, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "regime_report.kv").exists() and not (tmp_path / "path.csv").exists()


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


# Path 0's finite state -8e307 and finite shock -1.09e308 add to -inf at step 0.
FAR_STATE = {"1.7e308": "8e307", "run.zeta = 1.0": "run.zeta = -8e307"}


def _overflow_cfg(drift, over=FAR_STATE):
    text = OVERFLOW_CFG.replace("cubic", drift)
    for old, new in over.items():
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("over, cause", [
    ({}, "non-finite shock: [-inf]"),
    (FAR_STATE, "non-finite state norm: inf"),
], ids=["shock", "state"])
def test_linear_drift_overflow_exits_2(tmp_path, capsys, command, over, cause):
    # The affine stage carries inf on without failing, so the fold names it.
    text = _overflow_cfg("linear", over)
    _exits_2_at_step_0(tmp_path, capsys, command, text + "drift.lam = 1e-12\n", cause)


@pytest.mark.parametrize("argv", [
    ["simulate", "regime_b.cfg", "--set", "run.zeta=1e300", "--set", "run.steps=10"],
    ["experiment", "regime_c.cfg", "--set", "drift.d=2", "--set", "run.zeta=1e200,1e200",
     "--set", "run.steps=2000", "--set", "run.paths=2"],
], ids=["simulate", "experiment"])
def test_a_finite_state_past_1e154_completes(tmp_path, capsys, argv):
    # Its squared norm overflows, so the fold read its norm as inf and the
    # path failed at step 0; the norm is now taken again, scaled.
    command, cfg, *over = argv
    assert main([command, str(ROOT / "configs" / cfg), *over, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    if command == "simulate":
        with open(tmp_path / "path.csv") as fh:
            rows = [line.split(",") for line in fh if line[0].isdigit()]
        assert float(rows[0][1]) == 1e300 and len(rows) == 11
        assert all(math.isfinite(float(row[1])) for row in rows)


def test_a_radial_state_past_1e154_completes(tmp_path, capsys):
    # Its squared norm overflows, so the radial stage read its radius as inf
    # and the radius solve stalled at residual nan at step 0.
    cfg = ROOT / "perfbench" / "configs" / "radial_d3.cfg"
    argv = ["simulate", str(cfg), "--set", "run.zeta=1e200,0,0", "--set", "run.steps=20", "--out", str(tmp_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and "final ||X|| = 1e+200" in out


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


def test_shipped_configs_load_with_benchmark_overrides(monkeypatch, tmp_path):
    pairs = _bench_overrides(monkeypatch)
    paths = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
    assert len(paths) == 9
    (tmp_path / "table.csv").write_text("".join(f"{n},0.5\n" for n in range(300)))
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        args = SimpleNamespace(config=str(path), overrides=pairs.get(rel, []), seed=42)
        cfg = _load(args)
        assert cfg["run.master_seed"] == "42"
        if "run.steps" in cfg:  # every run key, thresholds included, lies in its domain
            build_run(cfg, build_drift(cfg).d)
        if "schedule.kind" in cfg:  # its kind reads every schedule key that is set
            if "schedule.path" in cfg:  # the benchmark writes its table at run time
                cfg["schedule.path"] = str(tmp_path / "table.csv")
            build_schedule(cfg)


@pytest.mark.parametrize("command, config, pairs, message", [
    ("classify", "configs/regime_a.cfg", ["schedule.sigma_c=5", "schedule.path=/nonexistent"],
     "schedule.path, schedule.sigma_c must be unset for schedule.kind = power"),
    ("classify", "perfbench/configs/cell_rms_invlog.cfg", ["schedule.c=5", "schedule.rho=0.3"],
     "schedule.c, schedule.rho must be unset for schedule.kind = sigma_cell_rms"),
    ("classify", "perfbench/configs/tabulated.cfg",
     ["schedule.path=<tmp>/table.csv", "schedule.c=3", "schedule.sigma=exp_decay"],
     "schedule.c, schedule.sigma must be unset for schedule.kind = tabulated"),
    ("affine", "configs/affine_demo.cfg", ["affine.matrix_csv=<tmp>/m.csv"],
     "affine.matrix_csv must be unset when affine.A is set"),
    ("consistency", "configs/consistency_exp.cfg", ["schedule.kind=tabulated", "schedule.c=5"],
     "schedule.c, schedule.kind must be unset for consistency"),
], ids=["power", "cell_rms", "tabulated", "affine", "consistency"])
def test_a_key_the_built_object_does_not_read_exits_2(tmp_path, capsys, command, config, pairs, message):
    # Each exited 0 and echoed the unread key into its report; affine
    # reported the file's 2x2 affine.A past a valid 1x1 affine.matrix_csv.
    (tmp_path / "table.csv").write_text("".join(f"{n},0.5\n" for n in range(300)))
    (tmp_path / "m.csv").write_text("-1.0\n")
    argv = [command, str(ROOT / config), "--out", str(tmp_path / "out")]
    argv += [arg for pair in pairs for arg in ("--set", pair.replace("<tmp>", str(tmp_path)))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_consistency_reads_a_derived_schedule_kind(tmp_path):
    # consistency derives both schedules from schedule.sigma itself, so a
    # config that names a derived kind serves classify and consistency both,
    # and consistency writes the report it writes without that key.
    pairs = ["schedule.kind=sigma_cell_rms", "run.h=0.5", "classify.truncation=2000"]
    argv = ["classify", str(ROOT / "configs/consistency_exp.cfg"), "--out", str(tmp_path / "c")]
    assert main(argv + [arg for pair in pairs for arg in ("--set", pair)]) == 0
    reports = []
    for extra in ([], pairs):
        out = tmp_path / str(len(extra))
        argv = ["consistency", str(ROOT / "configs/consistency_exp.cfg"), "--out", str(out)]
        argv += [arg for pair in ["consistency.h_grid=0.5,1", "run.steps=50", "run.paths=2", *extra]
                 for arg in ("--set", pair)]
        assert main(argv) in (0, 1)
        reports.append((out / "consistency_report.kv").read_text())
    assert reports[0] == reports[1] and "row.1.regime_cell_rms" in reports[0]


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch, tmp_path, capsys):
    # perfbench's traced run wraps package functions where the package looks
    # them up (cli.write_kv among them): a name renamed or no longer imported
    # there fails here, and one no longer called leaves its span empty.
    from ssbelab import cli, harness, integrator

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    session = importlib.import_module("session")
    tracer = importlib.import_module("tracer").Tracer("probe-check")
    before = {module: dict(vars(module)) for module in (cli, harness, integrator)}
    try:
        session.install_probes(tracer)
        assert cli.write_kv.__wrapped__ is harness.write_kv
        for command, config in (("classify", "configs/regime_b.cfg"), ("experiment", "configs/regime_c.cfg")):
            argv = [command, str(ROOT / config), "--out", str(tmp_path), "--set", "classify.truncation=2000",
                    "--set", "run.steps=200", "--set", "run.paths=2"]
            assert cli.main(argv) in (0, 1)
    finally:
        tracer.uninstall()
    called = {tracer.names[i] for i in tracer.name}
    assert {"cli.main", "config.build_schedule", "classifier.classify", "harness.write_kv",
            "harness.run_ensemble", "harness.write_ensemble_outputs",
            "integrator.integrate_paths_lockstep"} <= called
    assert all(dict(vars(module)) == names for module, names in before.items())


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


# SHA-256 of path.csv as written at seed 42: full records at d = 1 and
# d = 3, a thinned record, and two noise blocks (5000 > 4096 steps).
PATH_CSV_DIGESTS = {
    "regime_a_full": ("configs/regime_a.cfg", ["run.steps=5000"],
                      "532ac792b704e337d2cf1de9edc32e5294ed5c0c090102504135ea65aa615869"),
    "radial_d3_full": ("perfbench/configs/radial_d3.cfg", ["run.steps=1500"],
                       "ff51e6768c10b32b656619020ea4a46f8353e460a91bb1435a907a4a7d1c2000"),
    "regime_b_thin7": ("configs/regime_b.cfg", ["run.steps=5000", "run.record_mode=thin:7"],
                       "6f37376007fd26aab785e2b71b32cd9859396962e36022d28177c79357c93dfe"),
    "arctan_full": ("configs/scalar_arctan.cfg", ["run.steps=5000"],
                    "27a5d18ee77010cec31faed99bfa498a0311bffc26e243f210f39467f2e0f574"),
}


@pytest.mark.parametrize("name", sorted(PATH_CSV_DIGESTS))
def test_simulate_path_csv_keeps_its_bytes(tmp_path, capsys, name):
    import hashlib

    config, pairs, digest = PATH_CSV_DIGESTS[name]
    argv = ["simulate", str(ROOT / config), "--out", str(tmp_path)]
    argv += [arg for pair in pairs for arg in ("--set", pair)]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "path.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ["classify", "simulate"])
@pytest.mark.parametrize("h", ["nan", "inf", "0", "-0.1"])
def test_step_size_must_be_finite_and_positive(tmp_path, capsys, command, h):
    # NaN passed the `h <= 0` check: classify read regime A and simulate stalled.
    argv = [command, str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", f"run.h={h}", "--set", "run.steps=10"]
    assert main(argv) == 2
    assert f"run.h must be a finite number > 0, got {float(h)!r}" in capsys.readouterr().err
    assert not (tmp_path / "regime_report.kv").exists() and not (tmp_path / "path.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("fraction", ["inf", "nan", "-1", "1e308"])
def test_window_fraction_must_be_in_the_unit_interval(tmp_path, capsys, command, fraction):
    # inf and 1e308 raised OverflowError in default_window; nan failed in int().
    argv = [command, str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", f"run.window_fraction={fraction}", "--set", "run.steps=10"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"run.window_fraction must be a number in [0, 1], got {float(fraction)!r}" in err
    assert not (tmp_path / "path.csv").exists() and not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("key", ["sigma_c", "sigma_a"])
def test_non_finite_sigma_family_parameter_exits_2(tmp_path, capsys, key):
    # NaN norms were cut as zero norms: classify read regime A.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("schedule.kind = sigma_sampled\nschedule.sigma = exp_decay\n"
                   "schedule.sigma_c = 1.0\nschedule.sigma_a = 1.0\nrun.h = 0.1\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path), "--set", f"schedule.{key}=nan"]) == 2
    assert f"exp_decay sigma needs a finite {key[-1]}, got nan" in capsys.readouterr().err
    assert not (tmp_path / "regime_report.kv").exists()


@pytest.mark.parametrize("command", ["simulate", "experiment", "classify"])
def test_non_finite_drift_matrix_names_the_key(tmp_path, capsys, command):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("drift.name = linear\nschedule.kind = constant\nschedule.c = 0.1\n"
                   "run.h = 0.1\nrun.steps = 10\nrun.zeta = 1.0,1.0\nrun.master_seed = 1\n")
    argv = [command, str(cfg), "--out", str(tmp_path), "--set", "drift.A=nan,0;0,-1"]
    assert main(argv) == 2
    assert "drift.A must have finite entries, got 'nan,0;0,-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "experiment", "classify", "consistency"])
def test_drift_matrix_needs_the_linear_drift(tmp_path, capsys, command):
    # build_schedule took d from drift.A whatever the drift: simulate exited 2
    # naming no key, and classify classified a d = 2 schedule.
    config = "consistency_exp.cfg" if command == "consistency" else "regime_a.cfg"
    argv = [command, str(ROOT / "configs" / config), "--out", str(tmp_path / "out"),
            "--set", "drift.A=-1,0;0,-1", "--set", "run.steps=10", "--set", "run.paths=2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "drift.A must be unset unless drift.name = linear, got drift.name = 'cubic'" in err
    assert not (tmp_path / "out").exists()
    if command == "classify":
        # The linear drift still reads it, and it still sets the dimension.
        assert main(argv + ["--set", "drift.name=linear"]) == 0
        assert "config.drift.A = -1,0;0,-1\n" in (tmp_path / "out" / "regime_report.kv").read_text()


@pytest.mark.parametrize("command, config, pairs, codes, message", [
    ("simulate", "regime_b.cfg", "drift.A=-1e308", (0,), ""),
    ("affine", "affine_demo.cfg", "run.h=1e308", (2,), "I - hA overflows at step size h = 1e+308"),
    ("consistency", "consistency_exp.cfg", "schedule.sigma_a=1e308", (0, 1), ""),
    ("consistency", "consistency_exp.cfg", "consistency.h_grid=1e308", (2,), "failed at step 0"),
    ("consistency", "consistency_exp.cfg", "schedule.sigma_c=1e-320", (0, 1), ""),
    ("consistency", "consistency_exp.cfg", "schedule.sigma_c=1e308", (2,),
     "exp_decay needs c * c / (2 a) finite, got c = 1e+308, a = 1.0"),
    ("classify", "regime_a.cfg",
     "schedule.kind=sigma_cell_rms schedule.sigma=power_decay schedule.sigma_p=0.25 run.h=1e308",
     (0,), ""),
    ("classify", "regime_a.cfg",
     "schedule.kind=sigma_cell_rms schedule.sigma=inverse_log_t schedule.sigma_a=2 run.h=1e308",
     (2,), "cell-rms quadrature failed on cell n=0"),
], ids=["drift_A", "affine_h", "sigma_a", "h_grid", "sigma_c_tiny", "sigma_c_huge",
        "power_decay_cell", "cell_rms_interval"])
def test_an_extreme_value_raises_no_overflow_warning(tmp_path, capsys, command, config, pairs,
                                                     codes, message):
    # Each warned from numpy (-0.5 (A + A.T), h A, -a t, n h, eps / f1[0],
    # c c / (2 a) times 0.0, power_decay's cell form inf * 0.0, the cell-rms
    # interval n h), and the suite's error::RuntimeWarning filter raised the
    # warning out of main. The limits are computed where they are the values
    # (exp(-a t) = 0.0, Q(inf) = 0.0, a cell at t = inf is 0.0); the rest
    # exit 2.  Pairs that set schedule.kind replace the file's schedule keys,
    # which the new kind does not read.
    text = (ROOT / "configs" / config).read_text()
    if "schedule.kind=" in pairs:
        text = "".join(line for line in text.splitlines(True) if not line.startswith("schedule."))
    (tmp_path / config).write_text(text)
    argv = [command, str(tmp_path / config), "--out", str(tmp_path),
            "--set", "run.steps=20", "--set", "run.paths=2"]
    argv += [arg for pair in pairs.split() for arg in ("--set", pair)]
    rc = main(argv)
    assert rc in codes
    assert message in capsys.readouterr().err
    if rc == 0 and command == "classify":
        assert "nan" not in (tmp_path / "regime_report.kv").read_text()


# Every schedule family, by its config lines and the parameters it takes.
CATALOGUE = {
    "zero": ("schedule.kind = zero\n", {}),
    "constant": ("schedule.kind = constant\n", {"c": 1.0}),
    "power": ("schedule.kind = power\n", {"c": 1.0, "p": 1.0}),
    "geometric": ("schedule.kind = geometric\n", {"c": 1.0, "rho": 0.5}),
    "inverse_log": ("schedule.kind = inverse_log\n", {"a": 2.0, "b": 2.0}),
    **{
        f"{kind}[{sigma}]": (f"schedule.kind = {kind}\nschedule.sigma = {sigma}\n",
                             {f"sigma_{k}": v for k, v in params.items()})
        for kind in ("sigma_sampled", "sigma_cell_rms")
        for sigma, params in (("exp_decay", {"c": 1.0, "a": 1.0}), ("constant", {"c": 1.0}),
                              ("power_decay", {"c": 1.0, "p": 1.0}),
                              ("inverse_log_t", {"a": 2.0, "b": 3.0}))
    },
}


@pytest.mark.parametrize("family", sorted(CATALOGUE))
def test_the_catalogue_at_extreme_values_exits_0_or_2_and_writes_no_nan(tmp_path, capsys, family):
    # Each family at each step size, with each parameter in turn at each value.
    # Under the suite's error::RuntimeWarning filter a numpy warning escapes
    # main; power_decay's cell form (inf * 0.0 at n h = inf) and the cell-rms
    # interval n h warned at the extreme h.
    head, params = CATALOGUE[family]
    cfg = tmp_path / "family.cfg"
    cfg.write_text(head + "".join(f"schedule.{k} = {v!r}\n" for k, v in params.items())
                   + "classify.truncation = 2000\n")
    cases = [[]] + [[f"schedule.{k}={v!r}"] for k in params
                    for v in (1e308, 1e-320, 1e-300, 0.25, 0.5, 2.0, 1e300)]
    failed = []
    for h in (1.0, 1e-300, 1e-320, 1e300, 1e308):
        for pairs in cases:
            argv = ["classify", str(cfg), "--out", str(tmp_path / "out"), "--set", f"run.h={h!r}"]
            argv += [arg for pair in pairs for arg in ("--set", pair)]
            report = tmp_path / "out" / "regime_report.kv"
            report.unlink(missing_ok=True)
            try:
                rc = main(argv)
            except RuntimeWarning as exc:
                failed.append((h, pairs, repr(exc)))
                continue
            if rc not in (0, 2) or (rc == 0 and "nan" in report.read_text()):
                failed.append((h, pairs, rc))
    capsys.readouterr()
    assert failed == []


@pytest.mark.parametrize("config, pair, message", [
    # run.r = 0 and drift.d = 0 raised ZeroDivisionError in the cell-rms derivation.
    ("perfbench/configs/cell_rms_invlog.cfg", "run.r=0", "run.r must be >= 1, got 0"),
    ("perfbench/configs/cell_rms_invlog.cfg", "drift.d=0", "drift.d must be >= 1, got 0"),
    ("configs/regime_b.cfg", "classify.eps_points=-1", "classify.eps_points must be >= 1, got -1"),
    ("configs/regime_b.cfg", "classify.eps_points=0", "classify.eps_points must be >= 1, got 0"),
], ids=["run_r", "drift_d", "eps_points", "eps_points_0"])
def test_classify_dimension_and_grid_keys_name_themselves(tmp_path, capsys, config, pair, message):
    assert main(["classify", str(ROOT / config), "--out", str(tmp_path), "--set", pair]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "regime_report.kv").exists()


@pytest.mark.parametrize("h, rc", [("1", 2), ("0.8", 0)], ids=["past", "at"])
def test_a_step_past_the_drifts_bound_exits_2(tmp_path, capsys, h, rc):
    # The paper's "step size chosen sufficiently small": the saturating
    # stage has one root for h <= 8 / c, which is 0.8 at c = 10.
    argv = ["simulate", str(ROOT / "perfbench/configs/radial_d3.cfg"), "--out", str(tmp_path),
            "--set", "drift.c=10", "--set", f"run.h={h}"]
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert err == ("error: step h = 1.0 exceeds the saturating drift's bound h_max = 0.8\n" if rc else "")
    assert (tmp_path / "path.csv").exists() == (rc == 0)


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("tol", ["-inf", "inf", "nan", "-1e-12"])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, command, tol):
    # -inf was accepted: simulate exited 0.
    argv = [command, str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", f"run.tol={tol}", "--set", "run.steps=10"]
    assert main(argv) == 2
    assert f"run.tol must be a finite number >= 0, got {float(tol)!r}" in capsys.readouterr().err
    assert not (tmp_path / "path.csv").exists() and not (tmp_path / "ensemble.csv").exists()


def test_zero_tol_stays_valid(tmp_path):
    argv = ["simulate", str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", "run.tol=0", "--set", "run.steps=10"]
    assert main(argv) == 0


@pytest.mark.parametrize("pair, message", [
    ("thresholds.converge=inf", "thresholds.converge must be a finite number > 0, got inf"),
    ("thresholds.escape=nan", "thresholds.escape must be a finite number > 0, got nan"),
    ("thresholds.bounded_cap=0", "thresholds.bounded_cap must be a finite number > 0, got 0.0"),
    ("thresholds.osc_min=-1", "thresholds.osc_min must be a finite number > 0, got -1.0"),
    ("thresholds.fraction=2", "thresholds.fraction must be a number in [0, 1], got 2.0"),
    ("thresholds.osc_fraction=nan", "thresholds.osc_fraction must be a number in [0, 1], got nan"),
])
def test_thresholds_must_lie_in_their_domain(tmp_path, capsys, pair, message):
    # converge = inf counted every path as converged: experiment printed
    # "consistent: true" and exited 0.
    argv = ["experiment", str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", pair, "--set", "run.steps=200", "--set", "run.paths=4"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("grid", ["-0.1,0.1", "0,0.1", "0.1,nan", "inf"])
def test_a_bad_h_grid_entry_names_the_key(tmp_path, capsys, grid):
    # Each printed only "step size h must be positive and finite".
    argv = ["consistency", str(ROOT / "configs/consistency_exp.cfg"), "--out", str(tmp_path),
            "--set", f"consistency.h_grid={grid}"]
    assert main(argv) == 2
    assert f"consistency.h_grid must hold finite numbers > 0, got {grid!r}" in capsys.readouterr().err
    assert not (tmp_path / "consistency_report.kv").exists()


_BAD_MODE = "run.record_mode: record mode must be full, summary or thin:k, k >= 1, got "


@pytest.mark.parametrize("pair, message", [
    # thin:x printed "invalid literal for int()"; the others named no key.
    ("run.record_mode=thin:x", _BAD_MODE + "'thin:x'"),
    ("run.record_mode=thin:0", _BAD_MODE + "'thin:0'"),
    ("run.record_mode=bogus", _BAD_MODE + "'bogus'"),
    ("run.zeta=nan", "run.zeta must be finite, got 'nan'"),
    ("run.zeta=-inf", "run.zeta must be finite, got '-inf'"),
])
def test_record_mode_and_zeta_name_their_key(tmp_path, capsys, pair, message):
    argv = ["simulate", str(ROOT / "configs/regime_a.cfg"), "--out", str(tmp_path),
            "--set", pair, "--set", "run.steps=10"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "path.csv").exists()


@pytest.mark.parametrize("command, key, value, csv, message", [
    # A missing file raised FileNotFoundError; the others named no key
    # ("SVD did not converge", numpy's "number of columns changed", "A must be square").
    ("affine", "affine.matrix_csv", "missing.csv", None, "must name a CSV file of numbers"),
    ("affine", "affine.matrix_csv", "m.csv", "nan,0\n0,-1\n", "must have finite entries"),
    ("affine", "affine.matrix_csv", "m.csv", "-1,0\n0\n", "must name a CSV file of numbers"),
    ("affine", "affine.matrix_csv", "m.csv", "-1,0\n", "must be square"),
    ("affine", "affine.A", "-1,0", None, "must be square"),
    ("simulate", "drift.A", "-1,0", None, "must be square"),
    ("simulate", "drift.A", "abc", None, "must be rows 'a,b;c,d' of numbers"),
], ids=["csv_missing", "csv_nan", "csv_ragged", "csv_not_square", "affine_A_not_square",
        "drift_A_not_square", "drift_A_text"])
def test_a_bad_matrix_names_its_key(tmp_path, capsys, command, key, value, csv, message):
    value = str(tmp_path / value) if key.endswith("csv") else value
    if csv is not None:
        Path(value).write_text(csv)
    cfg = tmp_path / "m.cfg"
    cfg.write_text("drift.name = linear\nschedule.kind = zero\nrun.h = 0.1\nrun.steps = 10\n"
                   f"run.zeta = 1.0\nrun.master_seed = 1\n{key} = {value}\n")
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} {message}, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_matrix_csv_still_feeds_the_affine_command(tmp_path, capsys):
    (tmp_path / "m.csv").write_text("-1.0,2.0\n-2.0,-3.0\n")
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"affine.matrix_csv = {tmp_path / 'm.csv'}\nrun.h = 0.2\n")
    assert main(["affine", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["affine", str(ROOT / "configs/affine_demo.cfg"), "--out", str(tmp_path / "i")]) == 0
    reports = [(p / "affine_report.txt").read_text() for p in (tmp_path, tmp_path / "i")]
    # Past the config echo, the CSV and the inline matrix give the same report.
    assert len({r[r.index("\nh = "):] for r in reports}) == 1


def test_an_underflowed_geometric_ratio_classifies(tmp_path, capsys):
    # exp(-a h) = 0.0 at a = 800, h = 1: both exited 2 with "math domain error".
    cfg = tmp_path / "s.cfg"
    cfg.write_text("schedule.kind = sigma_sampled\nschedule.sigma = exp_decay\n"
                   "schedule.sigma_c = 1.0\nschedule.sigma_a = 800\nrun.h = 1\n")
    assert main(["classify", str(cfg), "--out", str(tmp_path)]) == 0
    kv = (tmp_path / "regime_report.kv").read_text()
    assert "regime = A\n" in kv and "evidence.12.tail_bound = 5e-324\n" in kv
    argv = ["consistency", str(ROOT / "configs/consistency_exp.cfg"), "--out", str(tmp_path),
            "--set", "consistency.h_grid=0.5,1000", "--set", "run.steps=50", "--set", "run.paths=2"]
    assert main(argv) in (0, 1)
    kv = (tmp_path / "consistency_report.kv").read_text()
    assert "row.1.regime_sampled = A\n" in kv and "row.1.regime_cell_rms = A\n" in kv


def test_a_missing_family_parameter_exits_2(tmp_path, capsys):
    # regime_b.cfg sets schedule.a and .b but no schedule.p: a KeyError traceback.
    argv = ["classify", str(ROOT / "configs/regime_b.cfg"), "--out", str(tmp_path),
            "--set", "schedule.kind=power"]
    assert main(argv) == 2
    assert "power schedule needs p" in capsys.readouterr().err


def test_a_contraction_violation_exits_2(tmp_path, capsys):
    # Path 0 decays to 5e-324 by step 1080, where its stage rounds to 0.0.
    # The contraction check raises SolverError (an assert would vanish under
    # python -O), which the engine names by path and step.
    text = (ROOT / "configs/regime_a.cfg").read_text()
    cfg = tmp_path / "geometric.cfg"
    cfg.write_text(text.replace("= power", "= geometric").replace("schedule.p = 1.0", "schedule.rho = 0.5"))
    argv = ["simulate", str(cfg), "--out", str(tmp_path), "--set", "run.h=1.0",
            "--set", "run.steps=20000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: path 0 (master_seed 42) failed at step 1080: "
        "contraction violated: ||x*||=0.0 vs ||x||=5e-324\n"
    )


@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_arctan_overflow_exits_2(tmp_path, capsys, command):
    # simulate's scalar solve raised OverflowError from arctan's 1 / (1 + y**2).
    # Its stage at -8e307 bisects; the state it then reaches is -inf.
    _exits_2_at_step_0(tmp_path, capsys, command, _overflow_cfg("arctan"), "non-finite state norm: inf")


@pytest.mark.parametrize("config, pair, key", [
    ("regime_a.cfg", "drift.lam=5", "lam"),
    ("regime_a.cfg", "drift.c=-5", "c"),
    ("regime_b.cfg", "drift.c=2", "c"),
])
def test_a_drift_key_the_drift_does_not_read_exits_2(tmp_path, capsys, config, pair, key):
    # build_drift read only the keys of the named family: drift.lam on the
    # cubic drift of regime_a.cfg exited 0 with the rows of the file alone.
    argv = ["experiment", str(ROOT / "configs" / config), "--out", str(tmp_path / "out"),
            "--set", pair, "--set", "run.steps=10", "--set", "run.paths=2"]
    assert main(argv) == 2
    name = "cubic" if config == "regime_a.cfg" else "linear"
    assert capsys.readouterr().err == f"error: unexpected {name} params: ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_drift_matrix_replaces_the_linear_rate(tmp_path):
    # regime_b.cfg sets drift.lam = 1.0 and drift.d = 1; drift.A = -2 takes
    # their place, so its rows are those of drift.lam = 2.
    rows = {}
    for pair in ("drift.A=-2", "drift.lam=2"):
        out = tmp_path / pair
        argv = ["experiment", str(ROOT / "configs/regime_b.cfg"), "--out", str(out),
                "--set", pair, "--set", "run.steps=200", "--set", "run.paths=3"]
        assert main(argv) == 0
        text = (out / "ensemble.csv").read_text()
        rows[pair] = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows["drift.A=-2"] == rows["drift.lam=2"]
    assert len(rows["drift.A=-2"]) == 4
    # On regime_c.cfg, drift.lam = 0.7 at drift.d = 2 builds A = -0.7 I: every
    # file both commands write holds the same bytes, past the drift keys' echo.
    for command in ("experiment", "simulate"):
        files = {}
        for pairs in (["drift.lam=0.7", "drift.d=2"], ["drift.A=-0.7,0;0,-0.7"]):
            out = tmp_path / command / pairs[0]
            argv = [command, str(ROOT / "configs/regime_c.cfg"), "--out", str(out),
                    "--set", "run.zeta=1,-0.5", "--set", "run.steps=300", "--set", "run.paths=3"]
            assert main(argv + [arg for pair in pairs for arg in ("--set", pair)]) in (0, 1)
            files[pairs[0]] = {f.name: [line for line in f.read_bytes().splitlines()
                                        if b"drift." not in line] for f in out.iterdir()}
        assert files["drift.lam=0.7"] == files["drift.A=-0.7,0;0,-0.7"]
        assert len(files["drift.lam=0.7"]) == (2 if command == "experiment" else 1)


@pytest.mark.parametrize("A, h", [("-1e-5", "0.1"), ("-1,0;0,-1e-12", "0.2")])
def test_affine_finishes_on_a_weakly_stable_matrix(tmp_path, capsys, A, h):
    # C(h) has a spectral radius within 1e-6 (and 2e-13) of 1: the Lyapunov
    # series, summed term by term, ran out of its 200 000 terms and exited 1
    # with a RuntimeError traceback.
    import numpy as np

    from ssbelab.affine import build_C, solve_discrete_lyapunov
    from ssbelab.config import parse_matrix

    argv = ["affine", str(ROOT / "configs/affine_demo.cfg"), "--out", str(tmp_path),
            "--set", f"affine.A={A}", "--set", f"run.h={h}"]
    assert main(argv) == 0
    assert "eigen_map_ok = true" in capsys.readouterr().out
    assert (tmp_path / "affine_report.txt").exists()
    sol = solve_discrete_lyapunov(build_C(parse_matrix(A), float(h)))
    assert sol.method_gap <= 1e-8 * np.linalg.norm(sol.M)


# SHA-256 of each report file and of stdout, the output directory masked as
# <out>, recorded before the reports shared one writer.  The table route
# covers the empirical regime C and the notes of format_regime_report.
# The ensemble.csv digests were recorded before the CSV writers shared one
# float formatter: regime C's checkpoint columns are all nan, regime A's
# at 1200 steps reach the 1e3 checkpoint.
REPORT_PINS = {
    "classify": ("configs/regime_b.cfg", ["classify.truncation=5000"], 0, {
        "stdout": "721b56c464be01d3d290eb8ee6036d2b15c9a1e6a4fa822173afe5ceb5a8d0a3",
        "regime_report.txt": "721b56c464be01d3d290eb8ee6036d2b15c9a1e6a4fa822173afe5ceb5a8d0a3",
        "regime_report.kv": "24b6ecc658eb39b4fd348c83983b7277504cd85ce529963d64d515fb5796b72a",
    }),
    "classify_table": ("perfbench/configs/tabulated.cfg", ["schedule.path=<out>/table.csv"], 0, {
        "stdout": "3863308d80b004be554b3167eeb33272fe5f391f17a02ae9c107ba565ee2bff8",
        "regime_report.txt": "3863308d80b004be554b3167eeb33272fe5f391f17a02ae9c107ba565ee2bff8",
        "regime_report.kv": "f183b717f0c1d65b8f864da06eb3b579d17066c4804b1f309e2efeb73ed4d5c9",
    }),
    "affine": ("configs/affine_demo.cfg", [], 0, {
        "stdout": "d7409cfaf8a71a80ea268403d7488e31ee1dbd01c62896936b741923484636f9",
        "affine_report.txt": "d7409cfaf8a71a80ea268403d7488e31ee1dbd01c62896936b741923484636f9",
    }),
    "consistency": ("configs/consistency_exp.cfg",
                    ["consistency.h_grid=0.5,1.0", "run.steps=300", "run.paths=3"], 0, {
        "stdout": "2dc089f20854e9d5ecb33552183e0fabbf15bdba9fd6e90faa99c173e123b541",
        "consistency_report.kv": "2dc089f20854e9d5ecb33552183e0fabbf15bdba9fd6e90faa99c173e123b541",
    }),
    "experiment": ("configs/regime_c.cfg", ["run.steps=300", "run.paths=4"], 1, {
        "stdout": "a5b7782c117da50da5acd9e80e69b7bfcd7a793dd3d775ee0afa529924e9e7e3",
        "ensemble_report.kv": "4852dfd24b2daa319454d16da03d3564372c7625a480d0d61b2895162a0266bf",
        "ensemble.csv": "73181a3e6ee29d46297516d9d2dbbbd8d2d29a521764ec8c79522fb1eeeb778c",
    }),
    "experiment_a1e3": ("configs/regime_a.cfg", ["run.steps=1200", "run.paths=3"], 0, {
        "stdout": "606d524247a841af48783d14f0d0da039dda114864c589acfcfa60d2cffad9a4",
        "ensemble_report.kv": "5210d34e5267997f21273f31da72b8f3a4aa16488492c1cd398e185da2d3bf97",
        "ensemble.csv": "d11e7aef2e2df9e617857538ce3488a5c0b89ce97d7acccdb7e48274626a2426",
    }),
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_reports_keep_their_bytes(tmp_path, capsys, name):
    import hashlib

    config, pairs, rc, digests = REPORT_PINS[name]
    out = tmp_path / "out"
    out.mkdir()
    (out / "table.csv").write_text("".join(f"{n},0.5\n" for n in range(3000)))
    argv = [name.partition("_")[0], str(ROOT / config), "--out", str(out)]
    argv += [arg for pair in pairs for arg in ("--set", pair.replace("<out>", str(out)))]
    assert main(argv) == rc
    texts = {"stdout": capsys.readouterr().out}
    texts |= {f: (out / f).read_text() for f in digests if f != "stdout"}
    got = {f: hashlib.sha256(t.replace(str(out), "<out>").encode()).hexdigest() for f, t in texts.items()}
    assert got == digests
