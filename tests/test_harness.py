from pathlib import Path

import numpy as np
import pytest

from ssbelab.config import (
    ConfigError,
    RunSettings,
    Thresholds,
    apply_overrides,
    build_drift,
    build_run,
    build_schedule,
    load_config,
    parse_config_text,
    parse_matrix,
)
from ssbelab.diagnostics import PathSummary
from ssbelab.drifts import builtin_drift
from ssbelab.harness import (
    compute_fractions,
    consistency_verdict,
    ensemble_report_records,
    run_consistency_suite,
    run_ensemble,
    summaries_csv_text,
    write_ensemble_outputs,
)
from ssbelab.integrator import default_window
from ssbelab.schedules import schedule_family, sigma_family

CFG_TEXT = """
# comment
drift.name = cubic
drift.d = 1
schedule.kind = power
schedule.c = 1.0
schedule.p = 1.0
run.h = 0.1
run.steps = 500
run.paths = 4
run.zeta = 1.0
run.master_seed = 42
"""


def _run_settings(**over):
    base = dict(
        r=1, steps=2000, paths=6, zeta=np.array([1.0]), master_seed=42,
        record_mode="summary", window=1000, tol=1e-12, thresholds=Thresholds(),
        out_dir=".", echo={"k": "v"},
    )
    base.update(over)
    return RunSettings(**base)


def test_config_parse_and_overrides():
    cfg = parse_config_text(CFG_TEXT)
    assert cfg["drift.name"] == "cubic"
    cfg2 = apply_overrides(cfg, ["run.steps=1000", "schedule.p = 2.0"])
    assert cfg2["run.steps"] == "1000" and cfg2["schedule.p"] == "2.0"
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["oops"])
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_config_builders():
    cfg = parse_config_text(CFG_TEXT)
    drift = build_drift(cfg)
    assert drift.name == "cubic"
    sched = build_schedule(cfg)
    assert sched.kind == "power" and sched.h == 0.1
    run = build_run(cfg, drift.d)
    # The trailing window floor is 1000 but never exceeds the path length.
    assert run.steps == 500 and run.paths == 4 and run.window == 500
    with pytest.raises(ConfigError):
        build_drift({"drift.name": "bogus"})
    with pytest.raises(ConfigError):
        build_schedule({"schedule.kind": "power", "run.h": "0.1", "schedule.p": "-2"})
    with pytest.raises(ConfigError):
        build_run({**cfg, "run.master_seed": "-3"}, 1)
    with pytest.raises(ConfigError):
        build_run({**cfg, "run.zeta": "1.0,2.0"}, 1)


_REPO = Path(__file__).resolve().parent.parent
# Every shipped config that sets up runs (affine_demo.cfg only analyses a matrix).
_RUN_CONFIGS = [
    p for p in sorted((_REPO / "configs").glob("*.cfg")) + [_REPO / "perfbench/configs/radial_d3.cfg"]
    if "run.steps" in load_config(str(p))
]


@pytest.mark.parametrize("path", _RUN_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_keep_their_trailing_window(path):
    # consistency_exp.cfg has no run.h (the consistency command sets h per
    # grid point), and build_run does not read it.
    cfg = load_config(str(path))
    d = build_drift(cfg).d
    for steps in (cfg["run.steps"], "500", "2000", "3000", "5000", "123457", "1000000"):
        for frac in (cfg.get("run.window_fraction"), "0.05"):
            over = {**cfg, "run.steps": steps}
            if frac is not None:
                over["run.window_fraction"] = frac
            n, f = int(steps), float(frac or 0.01)
            # The rule build_run spelled out before it called default_window.
            expected = max(1, min(n, max(1000, int(np.ceil(f * n)))))
            assert build_run(over, d).window == default_window(n, f) == expected


def test_config_missing_file():
    with pytest.raises(ConfigError, match="no/such/file.cfg"):
        load_config("no/such/file.cfg")


def test_parse_matrix():
    M = parse_matrix("-1.0,2.0;-2.0,-3.0")
    assert M.shape == (2, 2) and M[1, 0] == -2.0
    with pytest.raises(ConfigError):
        parse_matrix("1,2;3")


def test_derived_schedule_config():
    cfg = {
        "schedule.kind": "sigma_cell_rms",
        "schedule.sigma": "exp_decay",
        "schedule.sigma_c": "1.0",
        "schedule.sigma_a": "1.0",
        "run.h": "1.0",
    }
    sched = build_schedule(cfg)
    assert sched.kind == "cell_rms[exp_decay]"
    assert sched.frobenius_grid([0])[0] == pytest.approx(0.65751985398289963, rel=1e-12)


def test_env_var_out_dir(monkeypatch):
    cfg = parse_config_text(CFG_TEXT)
    monkeypatch.setenv("SSBELAB_OUT", "/tmp/from_env")
    run = build_run(cfg, 1)
    assert run.out_dir == "/tmp/from_env"
    run2 = build_run({**cfg, "output.dir": "cfgdir"}, 1)
    assert run2.out_dir == "cfgdir"
    run3 = build_run(cfg, 1, out_flag="flagdir")
    assert run3.out_dir == "flagdir"


def _summary(idx, final, sup, wmin, wmax):
    return PathSummary(
        path_index=idx, final_norm=final, sup_norm=sup, window_min=wmin,
        window_max=wmax, time_avg_sq=1.0, m_over_n=0.0, m_abs_over_qv=0.0,
        shock_sq_avg=0.0,
    )


def test_fraction_definitions_are_exclusive():
    th = Thresholds(converge=0.05, escape=3.0, bounded_cap=3.0, osc_min=0.1)
    sums = [
        _summary(0, 0.001, 1.0, 0.0, 0.01),  # converged
        _summary(1, 0.5, 5.0, 0.05, 0.8),    # escaped
        _summary(2, 0.5, 2.0, 0.05, 0.8),    # bounded oscillatory
        _summary(3, 0.5, 2.0, 0.5, 0.8),     # none: window floor too high
    ]
    fr = compute_fractions(sums, th)
    assert fr.converged == 0.25
    assert fr.escaped == 0.25
    assert fr.bounded_oscillatory == 0.25
    assert fr.converged + fr.escaped + fr.bounded_oscillatory <= 1.0
    assert consistency_verdict("A", fr, th) is False
    assert consistency_verdict("inconclusive", fr, th) is None


def test_run_ensemble_regime_a_small():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    rep = run_ensemble(drift, sched, _run_settings())
    assert rep.predicted == "A"
    assert rep.consistent is True
    assert rep.fractions.converged == 1.0
    assert [s.path_index for s in rep.summaries] == list(range(6))


def test_ensemble_csv_deterministic(tmp_path):
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    rep1 = run_ensemble(drift, sched, _run_settings())
    rep2 = run_ensemble(drift, sched, _run_settings())
    assert summaries_csv_text(rep1.summaries, ["x"]) == summaries_csv_text(rep2.summaries, ["x"])
    csv_path, kv_path = write_ensemble_outputs(rep1, str(tmp_path / "out"))
    body = open(csv_path).read()
    assert body.startswith("# k: v\n")
    assert body.count("\n") == 1 + 1 + 6  # header + columns + rows
    kv = dict(
        line.split(" = ", 1) for line in open(kv_path).read().splitlines()
    )
    assert kv["predicted_regime"] == "A"
    assert kv["consistent"] == "true"


def test_ensemble_report_records_roundtrip():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    rep = run_ensemble(drift, sched, _run_settings(paths=2, steps=2500))
    rec = ensemble_report_records(rep)
    assert rec["classifier.regime"] == "A"
    assert rec["config.k"] == "v"
    assert float(rec["fraction.converged"]) == 1.0


def test_consistency_suite_exp_decay():
    sigma = sigma_family("exp_decay", c=1.0, a=1.0)
    drift = builtin_drift("cubic")
    rep = run_consistency_suite(sigma, drift, [0.5, 1.0], _run_settings(paths=6, steps=4000))
    assert rep.regime_label == "A"
    assert rep.labels_agree_across_h and rep.labels_agree_across_choices
    for row in rep.rows:
        assert row.regime_sampled == row.regime_cell_rms == "A"
        assert row.sandwich_ok and row.series_sandwich_ok
        assert row.ensemble_consistent_sampled and row.ensemble_consistent_cell_rms


def test_consistency_suite_refusals():
    sigma = sigma_family("exp_decay", c=1.0, a=1.0)
    weak_drift = builtin_drift("arctan")
    with pytest.raises(ValueError, match="mean-reverting"):
        run_consistency_suite(sigma, weak_drift, [0.5], _run_settings())
    from ssbelab.schedules import ContinuousSigma

    opaque = ContinuousSigma(name="opaque", d=1, r=1,
                             fn=lambda t: np.array([[np.sin(t) ** 2 + 0.1]]))
    with pytest.raises(ValueError, match="cell integral|non-increasing"):
        run_consistency_suite(opaque, builtin_drift("cubic"), [0.5], _run_settings())


def test_consistency_suite_zeta_must_match_the_drift():
    sigma = sigma_family("exp_decay", c=1.0, a=1.0, d=3, r=3)
    drift = builtin_drift("cubic", d=3)
    for bad in ([5.0, -2.0], [5.0], [[1.0, 1.0, 1.0]]):
        run = _run_settings(r=3, paths=2, steps=50, zeta=np.array(bad))
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            run_consistency_suite(sigma, drift, [0.5], run)
    run = _run_settings(r=3, paths=2, steps=50, zeta=np.array([2.0, 2.0, 2.0]))
    assert run_consistency_suite(sigma, drift, [0.5], run).regime_label == "A"

