"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Monte Carlo thresholds are pilot-calibrated values
frozen in the golden configs under configs/.
"""

import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from ssbelab.affine import (
    build_affine_system,
    eigen_map_check,
    lyapunov_decrement_residuals,
    solve_discrete_lyapunov,
)
from ssbelab.classifier import classify, partial_sum_S
from ssbelab.config import build_drift, build_run, build_schedule, load_config
from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.gaussian import derive_substream
from ssbelab.harness import run_ensemble, summaries_csv_text
from ssbelab.implicit import solve_scalar, solve_vector
from ssbelab.integrator import energy_identity_residuals, integrate
from ssbelab.normal import log_tail_q, phi_cdf
from ssbelab.schedules import from_sigma_cell_rms, from_sigma_sampled, schedule_family, sigma_family

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _passline(tag: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.1f}s)")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_implicit_contraction_fuzz():
    start = time.time()
    rng = np.random.default_rng(20130118)
    scalar_drifts = [
        builtin_drift("linear", lam=1.0),
        builtin_drift("cubic"),
        builtin_drift("saturating", c=1.0),
        builtin_drift("arctan"),
    ]
    for i in range(60_000):
        drift = scalar_drifts[i % 4]
        h = float(10.0 ** rng.uniform(-3, 1))
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 3))
        sol = solve_scalar(drift, h, x, 1e-12)
        assert sol.residual <= 1e-12
        assert 0.0 < abs(sol.x_star) < abs(x)

    vector_drifts = [
        builtin_drift("cubic", d=3),
        builtin_drift("arctan", d=3),
        builtin_drift("saturating", c=1.0, d=3),
        builtin_drift("linear", lam=0.7, d=2),
    ]
    for i in range(40_000):
        drift = vector_drifts[i % 4]
        h = float(10.0 ** rng.uniform(-3, 1))
        direction = rng.standard_normal(drift.d)
        direction /= np.linalg.norm(direction)
        x = direction * 10.0 ** rng.uniform(-4, 3)
        sol = solve_vector(drift, h, x, 1e-12)
        assert sol.residual <= 1e-12
        assert 0.0 < np.linalg.norm(sol.x_star) < np.linalg.norm(x)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _passline("1 implicit contraction (1e5 fuzzed solves)", elapsed)


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_energy_identity():
    start = time.time()
    drift = builtin_drift("cubic")
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    worst = 0.0
    for p in range(20):
        rec = integrate(drift, sched, [1.0], 10_000, derive_substream(42, p, 1))
        worst = max(worst, float(energy_identity_residuals(rec, drift).max()))
    assert worst <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _passline(f"2 energy identity (20 paths x 1e4, worst {worst:.2e})", elapsed)


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_affine_exactness():
    start = time.time()
    rng = np.random.default_rng(5)
    worst_dev = 0.0
    for d in (1, 2, 4):
        A = rng.standard_normal((d, d)) - (d + 1.5) * np.eye(d)
        assert (np.linalg.eigvals(A).real < 0).all()
        drift = builtin_drift("linear", A=A)
        # Same eval and jac, no declared structure: the stage goes through
        # the nonlinear solvers instead of C(h).
        undeclared = make_drift(drift.eval, d, name="undeclared", jac=drift.jac)
        sched = schedule_family("power", h=0.1, c=1.0, p=1.0, d=d, r=d)
        r1 = integrate(undeclared, sched, np.ones(d), 1000, derive_substream(11, 0, d))
        r2 = integrate(drift, sched, np.ones(d), 1000, derive_substream(11, 0, d))
        worst_dev = max(worst_dev, float(np.abs(r1.X - r2.X).max()))
    assert worst_dev <= 1e-9

    worst_mismatch = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        A = rng.standard_normal((d, d))
        A -= (np.abs(np.linalg.eigvals(A)).max() + 0.5) * np.eye(d)
        assert (np.linalg.eigvals(A).real < 0).all()
        h = float(10.0 ** rng.uniform(-2, 0.5))
        rep = eigen_map_check(A, h, tol=1e-10)
        worst_mismatch = max(worst_mismatch, rep.max_mismatch)
        assert rep.max_mismatch <= 1e-10
        assert rep.spectral_radius < 1.0 and rep.all_inside_unit
    elapsed = time.time() - start
    assert elapsed < 10.0
    _passline(
        f"3 affine exactness (dev {worst_dev:.2e}, eig mismatch {worst_mismatch:.2e})",
        elapsed,
    )


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_lyapunov():
    start = time.time()
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        C = rng.standard_normal((d, d))
        C *= rng.uniform(0.1, 0.95) / np.abs(np.linalg.eigvals(C)).max()
        sol = solve_discrete_lyapunov(C, tol=1e-13)
        assert sol.residual <= 1e-10
        assert (np.linalg.eigvalsh(sol.M) > 0).all()
        assert sol.method_gap <= 1e-9

    worst_dec = 0.0
    for k in range(5):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d)) - (d + 1.0) * np.eye(d)
        if not (np.linalg.eigvals(A).real < 0).all():
            A -= 2.0 * np.eye(d)
        h = float(10.0 ** rng.uniform(-1.5, 0))
        system = build_affine_system(A, h)
        sched = schedule_family("inverse_log", h=h, a=2.0, b=2.0, d=d, r=d)
        rec = integrate(builtin_drift("linear", A=A), sched, np.ones(d), 1000, derive_substream(23, k, d))
        worst_dec = max(worst_dec, float(lyapunov_decrement_residuals(system, rec).max()))
    assert worst_dec <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 20.0
    _passline(f"4 Lyapunov (decrement worst {worst_dec:.2e})", elapsed)


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_classifier():
    start = time.time()
    rep_a = classify(schedule_family("power", h=0.1, c=1.0, p=1.0))
    assert rep_a.regime == "A"
    rep_b = classify(schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    assert rep_b.regime == "B" and rep_b.eps_prime == 2.0  # analytic path, exact
    rep_c = classify(schedule_family("constant", h=0.1, c=1.0))
    assert rep_c.regime == "C"
    zero = schedule_family("zero", h=0.1)
    rep_z = classify(zero)
    assert rep_z.regime == "A"
    for eps in (0.01, 1.0, 10.0):
        assert partial_sum_S(zero, eps, 1000).value == 0.0

    # S vs S' decision agreement over a 50-schedule sweep.
    rng = np.random.default_rng(7)
    grid = np.geomspace(0.05, 10.0, 13)
    for k in range(50):
        fam = k % 3
        if fam == 0:
            sched = schedule_family(
                "geometric", h=0.1, c=float(rng.uniform(0.3, 3)), rho=float(rng.uniform(0.5, 0.95))
            )
        elif fam == 1:
            sched = schedule_family(
                "power", h=0.1, c=float(rng.uniform(0.3, 2)), p=float(rng.uniform(0.5, 2))
            )
        else:
            sched = schedule_family(
                "inverse_log", h=0.1, a=float(rng.uniform(0.1, 8)), b=float(rng.uniform(1.5, 20))
            )
        r_s = classify(sched, epsilon_grid=grid, policy="s")
        r_sp = classify(sched, epsilon_grid=grid, policy="sprime")
        assert r_s.regime == r_sp.regime, (sched.kind, sched.params)
        assert r_s.regime != "inconclusive"
        assert r_s.agreement is True and r_sp.agreement is True

    # Termwise sandwich for monotone continuous sources.
    for sig, h in (
        (sigma_family("exp_decay", c=1.0, a=1.0), 0.5),
        (sigma_family("power_decay", c=1.0, p=0.8), 1.0),
    ):
        sampled = from_sigma_sampled(sig, h)
        cell = from_sigma_cell_rms(sig, h)
        ns = np.arange(501)
        f_s = sampled.frobenius_grid(ns)
        f_c = cell.frobenius_grid(ns)
        assert (f_s[1:] <= f_c[:-1] + 1e-12).all()
        assert (f_c[:-1] <= f_s[:-1] + 1e-12).all()
    elapsed = time.time() - start
    assert elapsed < 30.0
    _passline("5 classifier analytic families + S/S' sweep + sandwich", elapsed)


# -- golden ensembles (criteria 6, 7, 9) -------------------------------------


@lru_cache(maxsize=None)
def _golden(name: str):
    cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
    drift = build_drift(cfg)
    sched = build_schedule(cfg)
    run = build_run(cfg, drift.d)
    start = time.time()
    report = run_ensemble(drift, sched, run)
    elapsed = time.time() - start
    header = [f"{k}: {v}" for k, v in sorted(report.config_echo.items())]
    return report, summaries_csv_text(report.summaries, header), elapsed


def test_criterion_6_dynamic_consistency():
    report_a, _, t_a = _golden("regime_a")
    assert report_a.predicted == "A"
    assert report_a.fractions.converged >= 0.95
    assert report_a.consistent is True

    report_b, _, t_b = _golden("regime_b")
    assert report_b.predicted == "B"
    assert report_b.fractions.bounded_oscillatory >= 0.95
    assert report_b.fractions.window_min_le_osc >= 0.90
    assert report_b.fractions.tavg_decreasing >= 0.90
    assert report_b.consistent is True

    report_c, _, t_c = _golden("regime_c")
    assert report_c.predicted == "C"
    assert report_c.fractions.escaped >= 0.95
    assert report_c.consistent is True

    elapsed = t_a + t_b + t_c
    assert elapsed < 300.0
    _passline(
        "6 dynamic consistency (A conv {:.3f}, B bound {:.3f}, C esc {:.3f})".format(
            report_a.fractions.converged,
            report_b.fractions.bounded_oscillatory,
            report_c.fractions.escaped,
        ),
        elapsed,
    )


def test_criterion_7_scalar_without_extra_mean_reversion():
    report, _, elapsed = _golden("scalar_arctan")
    assert report.predicted == "A"
    assert report.fractions.converged >= 0.95
    assert report.consistent is True
    assert elapsed < 120.0
    _passline(
        f"7 scalar decay, bounded reversion rate (conv {report.fractions.converged:.3f})",
        elapsed,
    )


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_normal_tail_accuracy():
    start = time.time()
    from oracle_tables import PHI_TABLE

    for x, expected in PHI_TABLE:
        assert phi_cdf(x) == pytest.approx(expected, rel=1e-13)
    for x in (20.0, 40.0, 100.0):
        asym = -0.5 * x * x - math.log(x) - 0.5 * math.log(2.0 * math.pi)
        assert abs(log_tail_q(x) - asym) <= 1e-2
    elapsed = time.time() - start
    assert elapsed < 1.0
    _passline("8 normal tail accuracy", elapsed)


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_determinism():
    report1, csv1, _ = _golden("regime_a")
    cfg = load_config(str(CONFIG_DIR / "regime_a.cfg"))
    drift = build_drift(cfg)
    sched = build_schedule(cfg)
    run = build_run(cfg, drift.d)
    start = time.time()
    report2 = run_ensemble(drift, sched, run)
    elapsed = time.time() - start
    header = [f"{k}: {v}" for k, v in sorted(report2.config_echo.items())]
    csv2 = summaries_csv_text(report2.summaries, header)
    assert csv1.encode() == csv2.encode()

    rep_x = classify(schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    rep_y = classify(schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    from ssbelab.classifier import regime_report_records

    assert regime_report_records(rep_x) == regime_report_records(rep_y)
    _passline("9 determinism (byte-identical ensemble CSV)", elapsed)
