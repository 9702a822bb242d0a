"""Built-in invariant battery behind the ``selftest`` subcommand.

A fast subset of the acceptance surface: enough to tell a broken install
from a working one in a few seconds, not a substitute for the test suite.
"""

from __future__ import annotations

import numpy as np

from ssbelab.affine import build_affine_system, eigen_map_check
from ssbelab.classifier import classify
from ssbelab.config import RunSettings, Thresholds
from ssbelab.drifts import builtin_drift
from ssbelab.gaussian import derive_substream
from ssbelab.harness import run_ensemble, summaries_csv_text
from ssbelab.implicit import solve_scalar, solve_vector
from ssbelab.integrator import energy_identity_residuals, integrate
from ssbelab.normal import phi_cdf, tail_q
from ssbelab.schedules import schedule_family


def _check(name: str, ok: bool, verbose: bool) -> bool:
    if verbose:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def run_selftest(verbose: bool = True) -> int:
    ok_all = True
    rng = np.random.default_rng(7)

    ok = abs(phi_cdf(0.0) - 0.5) < 1e-15 and abs(phi_cdf(1.0) - 0.8413447460685429) < 1e-13
    ok = ok and abs(tail_q(1.0) - 0.15865525393145705) < 1e-14
    ok_all &= _check("normal cdf/tail spot values", ok, verbose)

    ok = True
    for drift in (builtin_drift("cubic"), builtin_drift("arctan"), builtin_drift("saturating")):
        for _ in range(300):
            h = 10.0 ** rng.uniform(-3, 1)
            x = rng.uniform(-100.0, 100.0)
            if x == 0.0:
                continue
            sol = solve_scalar(drift, h, x, 1e-12)
            ok &= sol.residual <= 1e-12 and 0.0 < abs(sol.x_star) < abs(x)
    ok_all &= _check("scalar implicit contraction fuzz", ok, verbose)

    drift3 = builtin_drift("cubic", d=3)
    ok = True
    for _ in range(100):
        h = 10.0 ** rng.uniform(-3, 1)
        x = rng.uniform(-50.0, 50.0, size=3)
        sol = solve_vector(drift3, h, x, 1e-12)
        ok &= sol.residual <= 1e-12 and np.linalg.norm(sol.x_star) < np.linalg.norm(x)
    ok_all &= _check("vector implicit contraction fuzz", ok, verbose)

    ok = True
    for _ in range(10):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d)) - (d + 1.0) * np.eye(d)
        if not (np.linalg.eigvals(A).real < 0).all():
            continue
        system = build_affine_system(A, h=0.3)
        emap = eigen_map_check(A, 0.3)
        ok &= system.lyapunov_residual <= 1e-10 and emap.ok
    ok_all &= _check("affine eigen map and Lyapunov residuals", ok, verbose)

    labels = []
    for sched, want in (
        (schedule_family("power", h=0.1, c=1.0, p=1.0), "A"),
        (schedule_family("inverse_log", h=0.1, a=2.0, b=2.0), "B"),
        (schedule_family("constant", h=0.1, c=1.0), "C"),
        (schedule_family("zero", h=0.1), "A"),
    ):
        rep = classify(sched, n_trunc=10_000)
        labels.append(rep.regime == want)
    ok_all &= _check("classifier canonical regimes", all(labels), verbose)

    drift = builtin_drift("cubic")
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    stream = derive_substream(42, 0, 1)
    rec = integrate(drift, sched, [1.0], 2000, stream)
    resid = energy_identity_residuals(rec, drift)
    ok_all &= _check("energy identity on a pilot path", float(resid.max()) <= 1e-8, verbose)

    run = RunSettings(
        r=1,
        steps=2000,
        paths=8,
        zeta=np.array([1.0]),
        master_seed=42,
        record_mode="summary",
        window=1000,
        tol=1e-12,
        thresholds=Thresholds(),
        out_dir=".",
        echo={},
    )
    rep1 = run_ensemble(drift, schedule_family("power", h=0.1, c=1.0, p=1.0), run)
    rep2 = run_ensemble(drift, schedule_family("power", h=0.1, c=1.0, p=1.0), run)
    text1 = summaries_csv_text(rep1.summaries, [])
    text2 = summaries_csv_text(rep2.summaries, [])
    ok_all &= _check("ensemble determinism (byte-identical CSV)", text1 == text2, verbose)

    if verbose:
        print("selftest:", "PASS" if ok_all else "FAIL")
    return 0 if ok_all else 1
