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
   assembled into a regime or reported as inconclusive, as is a grid that
   reads infinite throughout: eps' may lie above it.

The evidence reported is that of S (of S' under policy 'sprime'); the other
series contributes verdicts only, and they must agree whenever both commit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ssbelab.normal import _SQRT2, ERFC_ZERO, tail_q_unchecked
from ssbelab.schedules import ContinuousSigma, NoiseSchedule, from_sigma_cell_rms

# exp(t) == 0.0 exactly for every t < -745.1332; the tests pin this.
EXP_ZERO = -746.0


def default_epsilon_grid(eps_min: float = 1e-2, eps_max: float = 1e1, points: int = 13) -> np.ndarray:
    """Logarithmic grid, ``points`` points from eps_min to eps_max."""
    for key, value in (("eps_min", eps_min), ("eps_max", eps_max)):
        if not 0 < value < math.inf:
            raise ValueError(f"epsilon grid must be positive and finite, got {key} = {value!r}")
    if eps_min > eps_max:
        raise ValueError(f"epsilon grid needs eps_min <= eps_max, got eps_min = {eps_min!r} "
                         f"and eps_max = {eps_max!r}")
    return np.geomspace(eps_min, eps_max, points)


@dataclass(frozen=True)
class SeriesPartial:
    value: float
    last_term: float
    tail_bound: Optional[float]
    truncation: int


def _frobenius_grid(schedule: NoiseSchedule, n_trunc: int) -> np.ndarray:
    return schedule.frobenius_grid(np.arange(n_trunc + 1))


def _dead(fro: np.ndarray) -> np.ndarray:
    """Indices of the norms that are not positive, NaN among them; their terms are 0.0."""
    return np.flatnonzero(~(fro > 0))


def _s_terms(fro: np.ndarray, eps: float, out: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Terms Q(eps / fro) into ``out``, 0.0 at ``dead`` (``_dead(fro)``).

    eps / fro is taken unmasked and inf (Q(inf) = 0) is written at
    ``dead``, so no ratio is NaN and the Q step needs no NaN scan.
    Denormal norms overflow the ratio to inf, which is the right limit.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(eps, fro, out=out)
    out[dead] = np.inf
    return tail_q_unchecked(out, out=out)


def _sprime_exponent(fro: np.ndarray, eps: float, out: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """t = -eps^2 / (2 fro^2) into ``out``; returns the mask of terms exp does not cut.

    t is computed over the whole array, unmasked (a masked numpy op costs
    about twice an unmasked one).  exp(t) is exactly 0.0 for every t below
    -745.1332, so a term is cut at ``dead`` or where t < ``EXP_ZERO``.
    """
    with np.errstate(under="ignore", over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(fro, fro, out=out)
        np.divide(-0.5 * eps * eps, out, out=out)
    # ~(t < cut) keeps a NaN exponent live, as the whole-array formula does.
    live = ~(out < EXP_ZERO)
    live[dead] = False
    return live


def _sprime_terms(fro: np.ndarray, eps: float, out: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Terms fro * exp(-eps^2 / (2 fro^2)), 0.0 where the norm is not positive.

    exp and the product are evaluated only on the terms ``_sprime_exponent``
    does not cut; the rest are written as 0.0, the value the whole-array
    formula gives them, so the buffer is bit for bit that formula's.
    """
    live = _sprime_exponent(fro, eps, out, dead)
    with np.errstate(under="ignore", over="ignore"):
        if live.all():
            np.exp(out, out=out)
            return np.multiply(fro, out, out=out)
        idx = np.flatnonzero(live)
        vals = np.exp(out[idx])
        np.multiply(fro[idx], vals, out=vals)
    out.fill(0.0)
    out[idx] = vals
    return out


_KERNELS = {"s": _s_terms, "sprime": _sprime_terms}


def _live_range(fro: np.ndarray, eps: float, kind: str, scratch: np.ndarray) -> slice:
    """Index range outside which every ``kind`` term is exactly 0.0, at eps and above.

    A term is cut at eps when eps / fro / sqrt(2) >= ``ERFC_ZERO`` (S; a
    zero norm gives inf) or by ``_sprime_exponent`` (S').  IEEE division and
    multiplication are monotone, so eps / fro and eps^2 / fro^2 never fall
    as eps grows: a term cut at eps is cut at every larger eps.
    """
    if kind == "s":
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(eps, fro, out=scratch)
        live = np.divide(scratch, _SQRT2, out=scratch) < ERFC_ZERO
    else:
        live = _sprime_exponent(fro, eps, scratch, _dead(fro))
    idx = np.flatnonzero(live)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def _partial(
    schedule: NoiseSchedule, terms: np.ndarray, eps: float, kind: str, n_trunc: int
) -> SeriesPartial:
    return SeriesPartial(
        value=float(terms.sum()),
        last_term=float(terms[-1]),
        tail_bound=schedule.series_tail_bound(eps, n_trunc, kind),
        truncation=n_trunc,
    )


def _partial_sum(schedule: NoiseSchedule, epsilon: float, n_trunc: int, kind: str) -> SeriesPartial:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_trunc < 0:
        raise ValueError(f"truncation index must be non-negative, got {n_trunc!r}")
    fro = _frobenius_grid(schedule, n_trunc)
    terms = _KERNELS[kind](fro, epsilon, np.empty_like(fro), _dead(fro))
    return _partial(schedule, terms, epsilon, kind, n_trunc)


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


def _sigma_vanishes_empirically(fro_all: np.ndarray) -> Optional[bool]:
    """Empirical flatness check on the norms at 0 .. n; None when the trend is ambiguous."""
    n = len(fro_all) - 1
    probes = np.geomspace(max(2, n // 1000), max(2, n), 24).astype(np.int64)
    fro = fro_all[np.unique(np.minimum(probes, n))]
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


def _probes(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """At most 12 probe indices n over the upper range, and their bars n^{-1/2}."""
    lo = max(100, n_trunc // 100)
    if lo >= n_trunc:
        return np.empty(0, dtype=np.int64), np.empty(0)
    idx = np.unique(np.geomspace(lo, n_trunc, 12).astype(np.int64))
    return idx, 1.0 / np.sqrt(idx.astype(np.float64))


def _verdicts(
    schedule: NoiseSchedule, fro: np.ndarray, grid: np.ndarray, kind: str, n_trunc: int, probes: tuple
) -> list[str]:
    """The ``kind`` series' verdict at each eps: finite under a finite tail bound,
    infinite when its terms at all ``probes`` (``_probes(n_trunc)``) reach their
    bars, else unknown.  The kernel runs on the probe norms alone, no sum is formed.
    """
    idx, bars = probes
    fro_probe = fro[idx]
    dead, out = _dead(fro_probe), np.empty_like(fro_probe)
    verdicts = []
    for eps in grid:
        tail = schedule.series_tail_bound(eps, n_trunc, kind)
        if tail is not None and math.isfinite(tail):
            verdicts.append("finite")
        elif bars.size and (_KERNELS[kind](fro_probe, eps, out, dead) >= bars).all():
            verdicts.append("infinite")
        else:
            verdicts.append("unknown")
    return verdicts


def _evidence(
    schedule: NoiseSchedule, fro: np.ndarray, grid: np.ndarray, kind: str, n_trunc: int, buf: np.ndarray,
    probes: tuple,
) -> list[EpsilonEvidence]:
    """Evidence of the ``kind`` series at each eps of the ascending grid.

    ``buf`` holds each row's terms in turn: the full n_trunc + 1 of them,
    so every sum keeps its pairwise order.  Only the range that
    ``_live_range`` leaves open at grid[0] is evaluated; the rest stays
    0.0, the value every row's kernel would write there.
    """
    verdicts = _verdicts(schedule, fro, grid, kind, n_trunc, probes)
    live = _live_range(fro, grid[0], kind, buf)
    buf.fill(0.0)
    dead = _dead(fro[live])
    evidence = []
    for eps, verdict in zip(grid, verdicts):
        _KERNELS[kind](fro[live], eps, buf[live], dead)
        partial = _partial(schedule, buf, eps, kind, n_trunc)
        evidence.append(EpsilonEvidence(epsilon=float(eps), verdict=verdict, partial=partial))
    return evidence


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
    if last_inf is not None and first_fin is not None:
        bracket = (eps[last_inf], eps[first_fin])
        return "B", math.sqrt(bracket[0] * bracket[1]), bracket
    # No bracket: even a grid infinite throughout fits B with eps' above it as well as C.
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
    if grid.size == 0 or not np.isfinite(grid).all() or (grid <= 0).any() or (np.diff(grid) <= 0).any():
        raise ValueError("epsilon grid must be positive, finite, sorted and non-empty")
    if n_trunc < 0:
        raise ValueError(f"truncation index must be non-negative, got {n_trunc!r}")
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
    probes = _probes(n_trunc)
    kind = "sprime" if policy == "sprime" else "s"
    evidence = _evidence(schedule, fro, grid, kind, n_trunc, buf, probes)
    cross = _verdicts(schedule, fro, grid, "s" if kind == "sprime" else "sprime", n_trunc, probes)
    agreement = all(e.verdict == v or "unknown" in (e.verdict, v) for e, v in zip(evidence, cross))

    # A finite L forces ||sigma(n)||_F -> 0; without L the norms are probed.
    if schedule.analytic_L is None:
        vanishes = _sigma_vanishes_empirically(fro)
        notes.append("norm-vanishing trend judged empirically")
    else:
        vanishes = float(schedule.analytic_L) < math.inf

    L = eps_prime = bracket = None
    if policy == "auto" and schedule.analytic_L is not None:
        L, method = float(schedule.analytic_L), "analytic_L"
        regime = "A" if L == 0.0 else "C" if math.isinf(L) else "B"
        eps_prime = math.sqrt(2.0 * L) if regime == "B" else None
    elif vanishes is False and float(fro.max()) > 0.0:
        regime, method = "C", "empirical_trend"
        notes.append("Frobenius norms do not vanish; series terms cannot vanish")
    else:
        regime, eps_prime, bracket = _assemble(evidence)
        method = "partial_sum_with_tail_bound" if regime != "inconclusive" else "empirical_trend"
    return RegimeReport(
        regime=regime,
        method=method,
        eps_prime=eps_prime,
        eps_prime_bracket=bracket,
        L=L,
        evidence=tuple(evidence),
        agreement=agreement,
        notes=tuple(notes),
    )


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
    rec = {"regime": report.regime, "method": report.method}
    lo, hi = report.eps_prime_bracket or (None, None)
    for key, value in (("L", report.L), ("eps_prime", report.eps_prime), ("eps_prime_lo", lo),
                       ("eps_prime_hi", hi)):
        if value is not None:
            rec[key] = repr(value)
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
