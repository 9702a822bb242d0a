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
from ssbelab.floattext import csv_lines
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
    """Ensemble CSV body with a frozen column schema; a checkpoint a path never reached is nan."""
    own = {f.name for f in fields(PathSummary)}
    direct = [name for name in SUMMARY_COLUMNS[1:] if name in own]
    block = np.full((len(summaries), len(SUMMARY_COLUMNS) - 1), np.nan)
    # Checkpoint n's time_avg_sq and m_over_n columns, after the direct ones.
    cols = {n: len(direct) + j for j, n in enumerate(CHECKPOINTS)}
    for i, s in enumerate(summaries):
        block[i, : len(direct)] = [getattr(s, name) for name in direct]
        for c in s.checkpoints:
            j = cols[c.n]
            block[i, j] = c.time_avg_sq
            block[i, j + len(CHECKPOINTS)] = c.m_over_n
    head = "".join(f"# {line}\n" for line in header_lines) + ",".join(SUMMARY_COLUMNS) + "\n"
    return head + csv_lines([s.path_index for s in summaries], block).decode("ascii")


def ensemble_report_records(report: EnsembleReport) -> dict[str, str]:
    rec = {
        "predicted_regime": report.predicted,
        "consistent": "n/a" if report.consistent is None else str(report.consistent).lower(),
    }
    for prefix, values in (("fraction", report.fractions), ("threshold", report.thresholds)):
        for f in fields(values):
            rec[f"{prefix}.{f.name}"] = repr(getattr(values, f.name))
    rec |= config_records(report.config_echo)
    for key, value in regime_report_records(report.regime).items():
        rec[f"classifier.{key}"] = value
    return rec


def config_records(cfg: dict[str, str]) -> dict[str, str]:
    """The config echo of a report: ``config.<key>`` for each key, sorted."""
    return {f"config.{key}": value for key, value in sorted(cfg.items())}


def write_kv(records: dict[str, str], path: str) -> str:
    """Write ``key = value`` lines, one per record, and return the text written."""
    text = "".join(f"{key} = {value}\n" for key, value in records.items())
    with open(path, "w") as fh:
        fh.write(text)
    return text


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
    # eps / f1[0] overflows only where its Q is 0.0: tail_q(inf) is 0.0.
    with np.errstate(over="ignore"):
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

    Each derivation's ensemble is ``run_ensemble`` on its derived schedule,
    the run ``run`` describes, so its label and verdict are those of
    ``experiment``.  Refuses configurations outside the suite's hypotheses:
    the drift must be strongly mean-reverting, and Sigma must either
    register an exact cell antiderivative or have non-increasing squared
    Frobenius norm.
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
        sampled = run_ensemble(drift, s_sampled, run, epsilon_grid)
        cell = run_ensemble(drift, s_cell, run, epsilon_grid)
        if sigma.monotone_sq_fro:
            termwise, series = _sandwich_checks(s_sampled, s_cell, SANDWICH_EPS, SANDWICH_TERMS)
        else:
            termwise = series = None
        rows.append(
            ConsistencyRow(
                h=float(h),
                regime_sampled=sampled.predicted,
                regime_cell_rms=cell.predicted,
                sandwich_ok=termwise,
                series_sandwich_ok=series,
                ensemble_consistent_sampled=sampled.consistent,
                ensemble_consistent_cell_rms=cell.consistent,
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


def _kv_value(value) -> str:
    """A float as its repr, a label as it is, a bool or None as lower-case text."""
    if isinstance(value, float):
        return repr(value)
    return value if isinstance(value, str) else str(value).lower()


def consistency_report_records(report: ConsistencyReport) -> dict[str, str]:
    """The report's verdicts, then each row's fields as ``row.<i>.<field>``."""
    names = ("regime_label", "labels_agree_across_h", "labels_agree_across_choices")
    rec = {name: _kv_value(getattr(report, name)) for name in names}
    for i, row in enumerate(report.rows):
        rec |= {f"row.{i}.{f.name}": _kv_value(getattr(row, f.name)) for f in fields(row)}
    return rec
