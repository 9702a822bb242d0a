"""Monte Carlo ensembles and the dynamic-consistency experiment suite.

An ensemble run integrates ``paths`` independent paths (one derived
substream per path index), reduces each to a PathSummary, classifies the
shared schedule, and checks that the empirical long-run behaviour matches
the predicted regime:

    A -> fraction of paths with trailing-window max below the convergence
         threshold at least ``fraction``;
    B -> fraction with sup-norm below the bounded cap at least
         ``fraction``, trailing-window min at or below the oscillation
         floor on at least ``osc_fraction`` of paths, and the average
         time-mean of ||X||^2 decreasing across checkpoints;
    C -> fraction with sup-norm beyond the escape threshold at least
         ``fraction``.

All thresholds are artifact decisions (the limits themselves carry no
rates); defaults were frozen from pilot runs and live in the golden
configs.  Paths advance in vectorised lockstep blocks; summaries are
ordered by path index, so output is deterministic byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from ssbelab.classifier import (
    RegimeReport,
    classify,
    partial_sum_S,
    regime_report_records,
)
from ssbelab.config import RunSettings, Thresholds
from ssbelab.diagnostics import CHECKPOINTS, PathSummary
from ssbelab.integrator import integrate_paths_lockstep
from ssbelab.normal import tail_q
from ssbelab.schedules import (
    ContinuousSigma,
    NoiseSchedule,
    from_sigma_cell_rms,
    from_sigma_sampled,
)

SUMMARY_COLUMNS = (
    "path_index",
    "final_norm",
    "sup_norm",
    "window_min",
    "window_max",
    "time_avg_sq",
    "m_over_n",
    "m_abs_over_qv",
    "shock_sq_avg",
    "tavg_c1e3",
    "tavg_c1e4",
    "tavg_c1e5",
    "mn_c1e3",
    "mn_c1e4",
    "mn_c1e5",
)


@dataclass(frozen=True)
class Fractions:
    converged: float
    bounded_oscillatory: float
    escaped: float
    window_min_le_osc: float
    tavg_decreasing: float


@dataclass(frozen=True)
class EnsembleReport:
    summaries: tuple[PathSummary, ...]
    fractions: Fractions
    regime: RegimeReport
    predicted: str
    consistent: Optional[bool]
    thresholds: Thresholds
    config_echo: dict = field(default_factory=dict)


def _checkpoint(summary: PathSummary, n: int, name: str) -> float:
    """Checkpoint field ``name`` at step n, NaN when the path never reached it."""
    for c in summary.checkpoints:
        if c.n == n:
            return getattr(c, name)
    return math.nan


def compute_fractions(summaries: Sequence[PathSummary], thresholds: Thresholds) -> Fractions:
    """Mutually exclusive path verdicts (converged beats escaped beats bounded)."""
    n = len(summaries)
    if n == 0:
        raise ValueError("no summaries")
    converged = sum(s.window_max < thresholds.converge for s in summaries) / n
    escaped = (
        sum(
            s.window_max >= thresholds.converge and s.sup_norm > thresholds.escape
            for s in summaries
        )
        / n
    )
    bounded = (
        sum(
            s.window_max >= thresholds.converge
            and s.sup_norm <= min(thresholds.escape, thresholds.bounded_cap)
            and s.window_min <= thresholds.osc_min
            for s in summaries
        )
        / n
    )
    win_osc = sum(s.window_min <= thresholds.osc_min for s in summaries) / n
    decreasing = 0
    for s in summaries:
        cps = [c.time_avg_sq for c in s.checkpoints]
        cps.append(s.time_avg_sq)
        decreasing += all(b <= a for a, b in zip(cps, cps[1:]))
    return Fractions(
        converged=converged,
        bounded_oscillatory=bounded,
        escaped=escaped,
        window_min_le_osc=win_osc,
        tavg_decreasing=decreasing / n,
    )


def consistency_verdict(predicted: str, fr: Fractions, th: Thresholds) -> Optional[bool]:
    if predicted == "A":
        return fr.converged >= th.fraction
    if predicted == "B":
        return (
            fr.bounded_oscillatory >= th.fraction
            and fr.window_min_le_osc >= th.osc_fraction
            and fr.tavg_decreasing >= th.osc_fraction
        )
    if predicted == "C":
        return fr.escaped >= th.fraction
    return None


def run_ensemble(
    drift,
    schedule: NoiseSchedule,
    run: RunSettings,
    epsilon_grid=None,
) -> EnsembleReport:
    """Integrate the configured ensemble and judge regime consistency."""
    summaries = integrate_paths_lockstep(
        drift,
        schedule,
        run.zeta,
        run.steps,
        run.r,
        run.master_seed,
        range(run.paths),
        tol=run.tol,
        window=run.window,
    )
    summaries.sort(key=lambda s: s.path_index)
    fractions = compute_fractions(summaries, run.thresholds)
    regime = classify(schedule, epsilon_grid=epsilon_grid)
    verdict = consistency_verdict(regime.regime, fractions, run.thresholds)
    return EnsembleReport(
        summaries=tuple(summaries),
        fractions=fractions,
        regime=regime,
        predicted=regime.regime,
        consistent=verdict,
        thresholds=run.thresholds,
        config_echo=dict(run.echo),
    )


def summaries_csv_text(summaries: Sequence[PathSummary], header_lines: Sequence[str]) -> str:
    """Ensemble CSV body with a frozen column schema."""
    out = []
    for line in header_lines:
        out.append(f"# {line}")
    out.append(",".join(SUMMARY_COLUMNS))
    for s in summaries:
        row = [
            str(s.path_index),
            repr(s.final_norm),
            repr(s.sup_norm),
            repr(s.window_min),
            repr(s.window_max),
            repr(s.time_avg_sq),
            repr(s.m_over_n),
            repr(s.m_abs_over_qv),
            repr(s.shock_sq_avg),
        ]
        for name in ("time_avg_sq", "m_over_n"):
            row += [repr(_checkpoint(s, n, name)) for n in CHECKPOINTS]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def ensemble_report_records(report: EnsembleReport) -> dict[str, str]:
    rec = {
        "predicted_regime": report.predicted,
        "consistent": "n/a" if report.consistent is None else str(report.consistent).lower(),
    }
    for prefix, values in (("fraction", report.fractions), ("threshold", report.thresholds)):
        for f in fields(values):
            rec[f"{prefix}.{f.name}"] = repr(getattr(values, f.name))
    for key, value in sorted(report.config_echo.items()):
        rec[f"config.{key}"] = value
    for key, value in regime_report_records(report.regime).items():
        rec[f"classifier.{key}"] = value
    return rec


def write_kv(records: dict[str, str], path: str) -> None:
    with open(path, "w") as fh:
        for key, value in records.items():
            fh.write(f"{key} = {value}\n")


def write_ensemble_outputs(report: EnsembleReport, out_dir: str, stem: str = "ensemble") -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    header = [f"{k}: {v}" for k, v in sorted(report.config_echo.items())]
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w") as fh:
        fh.write(summaries_csv_text(report.summaries, header))
    kv_path = os.path.join(out_dir, f"{stem}_report.kv")
    write_kv(ensemble_report_records(report), kv_path)
    return csv_path, kv_path


# ---------------------------------------------------------------------------
# Dynamic-consistency suite over a continuous noise source.


@dataclass(frozen=True)
class ConsistencyRow:
    h: float
    regime_sampled: str
    regime_cell_rms: str
    sandwich_ok: Optional[bool]
    series_sandwich_ok: Optional[bool]
    ensemble_consistent_sampled: Optional[bool]
    ensemble_consistent_cell_rms: Optional[bool]


@dataclass(frozen=True)
class ConsistencyReport:
    rows: tuple[ConsistencyRow, ...]
    labels_agree_across_h: bool
    labels_agree_across_choices: bool
    regime_label: str


def _sandwich_checks(s1: NoiseSchedule, s2: NoiseSchedule, eps: float, n_check: int):
    """Termwise bounds linking the sampled (s1) and cell-rms (s2) derivations.

    For non-increasing ||Sigma||_F^2: fro_sampled(n+1) <= fro_cell(n) <=
    fro_sampled(n), and summed, S - first term <= S_cell <= S.
    """
    ns = np.arange(n_check + 1)
    f1 = s1.frobenius_grid(ns)
    f2 = s2.frobenius_grid(ns)
    tol = 1e-9 * max(1.0, float(f1.max()))
    termwise = bool(
        (f1[1:] <= f2[:-1] + tol).all() and (f2[:-1] <= f1[:-1] + tol).all()
    )
    ps1 = partial_sum_S(s1, eps, n_check)
    ps2 = partial_sum_S(s2, eps, n_check)
    first_term = 0.0 if f1[0] == 0 else tail_q(eps / f1[0])
    series = bool(
        ps1.value - first_term <= ps2.value + 1e-9 and ps2.value <= ps1.value + 1e-9
    )
    return termwise, series


# The sandwich checks compare both derivations at this eps over this many terms.
SANDWICH_EPS = 1.0
SANDWICH_TERMS = 2_000


def run_consistency_suite(
    sigma: ContinuousSigma,
    drift,
    h_grid: Sequence[float],
    run: RunSettings,
    epsilon_grid=None,
) -> ConsistencyReport:
    """Compare both schedule derivations of Sigma across a step-size grid.

    Each derivation's ensemble is the one ``run`` describes, judged by
    ``run.thresholds``.  Refuses configurations outside the suite's
    hypotheses: the drift must be strongly mean-reverting, and Sigma must
    either register an exact cell antiderivative or have non-increasing
    squared Frobenius norm.
    """
    if not drift.strong_mean_reverting:
        raise ValueError(
            "consistency suite requires a strongly mean-reverting drift "
            "(inner product growing faster than the norm)"
        )
    if sigma.env_sq_cell is None and not sigma.monotone_sq_fro:
        raise ValueError(
            "consistency suite requires an exact cell integral or a "
            "non-increasing squared Frobenius norm"
        )
    rows = []
    for h in h_grid:
        s_sampled = from_sigma_sampled(sigma, float(h))
        s_cell = from_sigma_cell_rms(sigma, float(h))
        rep1 = classify(s_sampled, epsilon_grid=epsilon_grid)
        rep2 = classify(s_cell, epsilon_grid=epsilon_grid)
        if sigma.monotone_sq_fro:
            termwise, series = _sandwich_checks(s_sampled, s_cell, SANDWICH_EPS, SANDWICH_TERMS)
        else:
            termwise = series = None
        cons = []
        for sched, rep in ((s_sampled, rep1), (s_cell, rep2)):
            summaries = integrate_paths_lockstep(
                drift,
                sched,
                run.zeta,
                run.steps,
                run.r,
                run.master_seed,
                range(run.paths),
                tol=run.tol,
                window=run.window,
            )
            fr = compute_fractions(summaries, run.thresholds)
            cons.append(consistency_verdict(rep.regime, fr, run.thresholds))
        rows.append(
            ConsistencyRow(
                h=float(h),
                regime_sampled=rep1.regime,
                regime_cell_rms=rep2.regime,
                sandwich_ok=termwise,
                series_sandwich_ok=series,
                ensemble_consistent_sampled=cons[0],
                ensemble_consistent_cell_rms=cons[1],
            )
        )
    return ConsistencyReport(
        rows=tuple(rows),
        labels_agree_across_h=all(
            len({getattr(r, k) for r in rows}) == 1 for k in ("regime_sampled", "regime_cell_rms")
        ),
        labels_agree_across_choices=all(r.regime_sampled == r.regime_cell_rms for r in rows),
        regime_label=rows[0].regime_sampled if rows else "inconclusive",
    )


def consistency_report_records(report: ConsistencyReport) -> dict[str, str]:
    rec = {
        "regime_label": report.regime_label,
        "labels_agree_across_h": str(report.labels_agree_across_h).lower(),
        "labels_agree_across_choices": str(report.labels_agree_across_choices).lower(),
    }
    for i, row in enumerate(report.rows):
        rec[f"row.{i}.h"] = repr(row.h)
        rec[f"row.{i}.regime_sampled"] = row.regime_sampled
        rec[f"row.{i}.regime_cell_rms"] = row.regime_cell_rms
        rec[f"row.{i}.sandwich_ok"] = str(row.sandwich_ok).lower()
        rec[f"row.{i}.series_sandwich_ok"] = str(row.series_sandwich_ok).lower()
        rec[f"row.{i}.ensemble_consistent_sampled"] = str(row.ensemble_consistent_sampled).lower()
        rec[f"row.{i}.ensemble_consistent_cell_rms"] = str(row.ensemble_consistent_cell_rms).lower()
    return rec
