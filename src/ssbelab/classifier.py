"""Trichotomy decisions for noise schedules.

A schedule belongs to exactly one of three regimes, according to the
finiteness pattern in eps of the Gaussian tail series

    S(eps)  = sum_n { 1 - Phi(eps / ||sigma(n)||_F) }          (zero terms
              where the norm vanishes, by the Phi(inf) = 1 convention)

or equivalently of its exponential surrogate

    S'(eps) = sum_n ||sigma(n)||_F exp(-eps^2 / (2 ||sigma(n)||_F^2)),

which is finite if and only if S is.  Regime A: finite for every eps
(paths decay); regime C: infinite for every eps (unbounded excursions);
regime B: a threshold eps' splits the two (bounded oscillation).

Finiteness of an infinite series is undecidable from finitely many terms,
so the decision procedure is layered and honest:

1. analytic: if the schedule registers L = lim ||sigma(n)||_F^2 log n,
   then L = 0 -> A; 0 < L < inf -> B with eps' = sqrt(2L); L = inf -> C.
2. structural: a Frobenius norm that does not vanish keeps the terms of S
   away from zero, forcing C.
3. evidence: per grid eps, a registered rigorous tail majorant proves
   finiteness; terms staying above n^{-1/2} on the probe range evidence
   divergence; anything else stays unknown.  The per-eps verdicts are
   assembled into a regime or reported as inconclusive.

Decisions from the S and S' routes are recorded side by side; they must
agree whenever both commit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ssbelab.normal import tail_q_grid
from ssbelab.schedules import ContinuousSigma, NoiseSchedule, from_sigma_cell_rms


def default_epsilon_grid(eps_min: float = 1e-2, eps_max: float = 1e1, points: int = 13) -> np.ndarray:
    """Logarithmic grid, ``points`` points from eps_min to eps_max."""
    if eps_min <= 0 or eps_max <= 0:
        raise ValueError(f"epsilon grid must be positive, got [{eps_min!r}, {eps_max!r}]")
    return np.geomspace(eps_min, eps_max, points)


@dataclass(frozen=True)
class SeriesPartial:
    value: float
    last_term: float
    tail_bound: Optional[float]
    truncation: int


def _frobenius_grid(schedule: NoiseSchedule, n_trunc: int) -> np.ndarray:
    return schedule.frobenius_grid(np.arange(n_trunc + 1))


def _s_terms(fro: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    # Denormal norms overflow the ratio to inf, which is the right limit
    # (the term becomes Q(inf) = 0); silence the intermediate warnings.
    out.fill(np.inf)
    with np.errstate(over="ignore"):
        np.divide(eps, fro, out=out, where=fro > 0)
    return tail_q_grid(out, out=out)


def _sprime_terms(fro: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    pos = fro > 0
    out.fill(0.0)
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        np.multiply(fro, fro, out=out, where=pos)
        np.divide(-0.5 * eps * eps, out, out=out, where=pos)
        np.exp(out, out=out, where=pos)
        np.multiply(fro, out, out=out, where=pos)
    return out


def _partial(
    schedule: NoiseSchedule, fro: np.ndarray, eps: float, kind: str, n_trunc: int, buf: np.ndarray
):
    """The ``kind`` series' terms at eps, written into ``buf``, and their SeriesPartial."""
    terms = (_s_terms if kind == "s" else _sprime_terms)(fro, eps, buf)
    return terms, SeriesPartial(
        value=float(terms.sum()),
        last_term=float(terms[-1]),
        tail_bound=schedule.series_tail_bound(eps, n_trunc, kind),
        truncation=n_trunc,
    )


def _partial_sum(schedule: NoiseSchedule, epsilon: float, n_trunc: int, kind: str) -> SeriesPartial:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_trunc < 0:
        raise ValueError("truncation index must be non-negative")
    fro = _frobenius_grid(schedule, n_trunc)
    return _partial(schedule, fro, epsilon, kind, n_trunc, np.empty_like(fro))[1]


def partial_sum_S(schedule: NoiseSchedule, epsilon: float, n_trunc: int) -> SeriesPartial:
    """Partial sum of the Gaussian tail series up to and including n_trunc.

    ``tail_bound`` is a rigorous upper bound on the remainder when the
    schedule registers eventually-monotone decay, else None.
    """
    return _partial_sum(schedule, epsilon, n_trunc, "s")


def partial_sum_Sprime(schedule: NoiseSchedule, epsilon: float, n_trunc: int) -> SeriesPartial:
    """Partial sum of the exponential surrogate series."""
    return _partial_sum(schedule, epsilon, n_trunc, "sprime")


def partial_sum_Sc(
    sigma: ContinuousSigma, h: float, epsilon: float, n_trunc: int, rel_tol: float = 1e-10
) -> SeriesPartial:
    """Partial sum of the continuous-comparison series.

    Uses cell-averaged squared Frobenius norms, which by construction
    equals ``partial_sum_S`` of the cell-rms derived schedule.
    """
    schedule = from_sigma_cell_rms(sigma, h, rel_tol=rel_tol)
    return partial_sum_S(schedule, epsilon, n_trunc)


@dataclass(frozen=True)
class EpsilonEvidence:
    epsilon: float
    verdict: str  # 'finite' | 'infinite' | 'unknown'
    partial: SeriesPartial


@dataclass(frozen=True)
class RegimeReport:
    regime: str  # 'A' | 'B' | 'C' | 'inconclusive'
    method: str  # 'analytic_L' | 'partial_sum_with_tail_bound' | 'empirical_trend'
    eps_prime: Optional[float] = None
    eps_prime_bracket: Optional[tuple[float, float]] = None
    L: Optional[float] = None
    evidence: tuple[EpsilonEvidence, ...] = ()
    agreement: Optional[bool] = None
    notes: tuple[str, ...] = ()


def _regime_from_L(L: float) -> tuple[str, Optional[float]]:
    if L == 0.0:
        return "A", None
    if math.isinf(L):
        return "C", None
    return "B", math.sqrt(2.0 * L)


def _sigma_vanishes_empirically(schedule: NoiseSchedule, n_probe: int) -> Optional[bool]:
    """Empirical flatness check; None when the trend is ambiguous."""
    probes = np.unique(np.geomspace(max(2, n_probe // 1000), n_probe, 24).astype(np.int64))
    fro = schedule.frobenius_grid(probes)
    top = float(fro.max())
    if top == 0.0:
        return True
    head = float(np.abs(fro[: max(1, len(fro) // 3)]).max())
    tail = float(np.abs(fro[-max(1, len(fro) // 3):]).max())
    if head > 0 and tail <= 1e-3 * head:
        return True
    if head > 0 and tail >= 0.98 * head:
        return False
    return None


def _divergence_signature(fro: np.ndarray, terms: np.ndarray, n_trunc: int) -> bool:
    """Terms at or above n^{-1/2} across the upper probe range."""
    lo = max(100, n_trunc // 100)
    if lo >= n_trunc:
        return False
    idx = np.unique(np.geomspace(lo, n_trunc, 12).astype(np.int64))
    return bool((terms[idx] >= 1.0 / np.sqrt(idx.astype(np.float64))).all())


def _evidence_for(
    schedule: NoiseSchedule, fro: np.ndarray, eps: float, kind: str, n_trunc: int, buf: np.ndarray
) -> EpsilonEvidence:
    terms, partial = _partial(schedule, fro, eps, kind, n_trunc, buf)
    if partial.tail_bound is not None and math.isfinite(partial.tail_bound):
        verdict = "finite"
    elif _divergence_signature(fro, terms, n_trunc):
        verdict = "infinite"
    else:
        verdict = "unknown"
    return EpsilonEvidence(epsilon=float(eps), verdict=verdict, partial=partial)


def _assemble(evidence: list[EpsilonEvidence]) -> tuple[str, Optional[float], Optional[tuple]]:
    verdicts = [e.verdict for e in evidence]
    eps = [e.epsilon for e in evidence]
    # Monotonicity in eps means finite decisions must sit above infinite ones.
    last_inf = max((i for i, v in enumerate(verdicts) if v == "infinite"), default=None)
    first_fin = min((i for i, v in enumerate(verdicts) if v == "finite"), default=None)
    if last_inf is not None and first_fin is not None and first_fin < last_inf:
        return "inconclusive", None, None
    if all(v == "finite" for v in verdicts):
        return "A", None, None
    if all(v == "infinite" for v in verdicts):
        return "C", None, None
    if last_inf is not None and first_fin is not None:
        bracket = (eps[last_inf], eps[first_fin])
        return "B", math.sqrt(bracket[0] * bracket[1]), bracket
    return "inconclusive", None, None


def classify(
    schedule: NoiseSchedule,
    epsilon_grid: Optional[Sequence[float]] = None,
    policy: str = "auto",
    n_trunc: int = 100_000,
) -> RegimeReport:
    """Regime decision for a schedule.

    ``policy`` selects the decision route: 'auto' uses analytic metadata
    first, then the structural norm check, then partial-sum evidence on
    the S series; 's' and 'sprime' skip the analytic layer and commit to
    one series (the structural layer still applies: it is a statement
    about the schedule, not about either series).
    """
    if policy not in ("auto", "s", "sprime"):
        raise ValueError(f"unknown policy {policy!r}")
    grid = np.asarray(epsilon_grid if epsilon_grid is not None else default_epsilon_grid(), dtype=float)
    if grid.size == 0 or (grid <= 0).any() or (np.diff(grid) <= 0).any():
        raise ValueError("epsilon grid must be positive, sorted and non-empty")
    notes: list[str] = []

    rows = schedule.params.get("rows")
    if rows is not None and n_trunc >= rows:
        n_trunc = rows - 1
        notes.append(f"truncation clamped to the {rows}-row table")

    fro = _frobenius_grid(schedule, n_trunc)
    # One buffer serves every evidence row: each row reads its terms before
    # the next overwrites them, and fresh (n_trunc + 1)-float temporaries
    # per row cost a page-faulting mmap each in a process that is still cold.
    buf = np.empty_like(fro)
    kind = "sprime" if policy == "sprime" else "s"
    evidence = [_evidence_for(schedule, fro, e, kind, n_trunc, buf) for e in grid]
    alt_kind = "s" if kind == "sprime" else "sprime"
    alt_evidence = [_evidence_for(schedule, fro, e, alt_kind, n_trunc, buf) for e in grid]
    agreement = _routes_agree(evidence, alt_evidence)

    if policy == "auto" and schedule.analytic_L is not None:
        regime, eps_prime = _regime_from_L(float(schedule.analytic_L))
        return RegimeReport(
            regime=regime,
            method="analytic_L",
            eps_prime=eps_prime,
            L=float(schedule.analytic_L),
            evidence=tuple(evidence),
            agreement=agreement,
            notes=tuple(notes),
        )

    vanishes = schedule.sigma_vanishes
    if vanishes is None:
        vanishes = _sigma_vanishes_empirically(schedule, n_trunc)
        notes.append("norm-vanishing trend judged empirically")
    if vanishes is False:
        if float(fro.max()) > 0.0:
            return RegimeReport(
                regime="C",
                method="empirical_trend",
                evidence=tuple(evidence),
                agreement=agreement,
                notes=tuple(notes + ["Frobenius norms do not vanish; series terms cannot vanish"]),
            )
        vanishes = True  # identically-zero schedule

    regime, eps_prime, bracket = _assemble(evidence)
    method = "partial_sum_with_tail_bound" if regime != "inconclusive" else "empirical_trend"
    return RegimeReport(
        regime=regime,
        method=method,
        eps_prime=eps_prime,
        eps_prime_bracket=bracket,
        evidence=tuple(evidence),
        agreement=agreement,
        notes=tuple(notes),
    )


def _routes_agree(ev_a: list[EpsilonEvidence], ev_b: list[EpsilonEvidence]) -> bool:
    """Committed per-eps verdicts must never contradict across routes."""
    for a, b in zip(ev_a, ev_b):
        if "unknown" in (a.verdict, b.verdict):
            continue
        if a.verdict != b.verdict:
            return False
    return True


def format_regime_report(report: RegimeReport, schedule: NoiseSchedule) -> str:
    """Human-readable table for the report."""
    lines = []
    lines.append(f"schedule: {schedule.kind}  h={schedule.h!r}  d={schedule.d} r={schedule.r}")
    lines.append(f"regime: {report.regime}    method: {report.method}")
    if report.L is not None:
        lines.append(f"L = lim ||sigma(n)||_F^2 log n : {report.L!r}")
    if report.eps_prime is not None:
        lines.append(f"eps' threshold: {report.eps_prime!r}")
    if report.eps_prime_bracket is not None:
        lo, hi = report.eps_prime_bracket
        lines.append(f"eps' bracket: [{lo!r}, {hi!r}]")
    if report.agreement is not None:
        lines.append(f"S vs S' route agreement: {report.agreement}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    lines.append(f"{'epsilon':>12}  {'verdict':>9}  {'partial_sum':>14}  {'last_term':>12}  {'tail_bound':>12}")
    for ev in report.evidence:
        tb = "n/a" if ev.partial.tail_bound is None else f"{ev.partial.tail_bound:.4e}"
        lines.append(
            f"{ev.epsilon:>12.5g}  {ev.verdict:>9}  {ev.partial.value:>14.8g}  "
            f"{ev.partial.last_term:>12.4e}  {tb:>12}"
        )
    return "\n".join(lines) + "\n"


def regime_report_records(report: RegimeReport) -> dict[str, str]:
    """Flat key-value form of the report for machine-readable output."""
    rec = {
        "regime": report.regime,
        "method": report.method,
    }
    if report.L is not None:
        rec["L"] = repr(report.L)
    if report.eps_prime is not None:
        rec["eps_prime"] = repr(report.eps_prime)
    if report.eps_prime_bracket is not None:
        rec["eps_prime_lo"] = repr(report.eps_prime_bracket[0])
        rec["eps_prime_hi"] = repr(report.eps_prime_bracket[1])
    if report.agreement is not None:
        rec["s_sprime_agreement"] = str(report.agreement).lower()
    for i, ev in enumerate(report.evidence):
        rec[f"evidence.{i}.epsilon"] = repr(ev.epsilon)
        rec[f"evidence.{i}.verdict"] = ev.verdict
        rec[f"evidence.{i}.partial_sum"] = repr(ev.partial.value)
        rec[f"evidence.{i}.last_term"] = repr(ev.partial.last_term)
        rec[f"evidence.{i}.truncation"] = str(ev.partial.truncation)
        if ev.partial.tail_bound is not None:
            rec[f"evidence.{i}.tail_bound"] = repr(ev.partial.tail_bound)
    return rec
