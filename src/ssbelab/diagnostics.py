"""Streaming path statistics that operationalise the long-run claims.

Almost-sure limits are unobservable, so limsup/liminf are proxied by
trailing-window extremes over the final stretch of the path (window size is
a recorded configuration value, default the last 1% of steps with a floor
of 1000).  Alongside the extremes the state tracks:

* the time average of ||X(n)||^2 (the Cesaro statistic of the bounded
  regime),
* the cross-term martingale M(n), accumulated per step as
  2 <x*(n-1), U(n)>, which equals 2 sqrt(h) <x*(n-1), sigma(n-1) xi(n)>,
* the predictable bound 4 h sum ||x*(j)||^2 ||sigma(j)||_F^2 on the
  quadratic variation of M,
* the average squared shock (1/n) sum ||sigma(j-1) xi(j)||^2, which tends
  to zero exactly when the schedule vanishes.

Snapshots are taken at logarithmically spaced checkpoints so trend
evidence survives without storing whole paths.

``DiagnosticState`` folds one path step by step.  ``BatchDiagnostics``,
its lockstep twin, buffers ``BatchDiagnostics.CHUNK`` steps of a path
block and folds them in whole-chunk numpy calls; the statistics, window
and checkpoints come out bit-identical to a per-step fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

CHECKPOINTS = (10**3, 10**4, 10**5)


@dataclass
class Checkpoint:
    n: int
    time_avg_sq: float
    m_over_n: float
    m_abs_over_qv: float
    shock_sq_avg: float
    sup_norm: float


@dataclass
class DiagnosticState:
    """Single-path accumulator; feed steps strictly in order."""

    d: int
    h: float
    window: int
    n: int = 0
    running_sup_norm: float = 0.0
    sum_sq: float = 0.0
    M_n: float = 0.0
    QV_bound: float = 0.0
    shock_sq_sum: float = 0.0
    checkpoints: list = field(default_factory=list)
    _ring: np.ndarray = field(init=False, repr=False)
    _ring_len: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self._ring = np.empty(self.window)

    def start(self, x0: np.ndarray) -> None:
        norm0 = float(np.linalg.norm(x0))
        self.running_sup_norm = norm0
        self._push_window(norm0)

    def _push_window(self, norm: float) -> None:
        self._ring[self._ring_len % self.window] = norm
        self._ring_len += 1

    def update(self, x_new, x_star_prev, u_new, sigma_prev, step=None) -> None:
        """Advance past one step: state n-1 -> n with shock u_new = U(n).

        ``sigma_prev`` may be the (d, r) matrix or its precomputed
        Frobenius norm; only the norm enters the accumulators.  Passing the
        1-based ``step`` index catches out-of-order feeding.
        """
        if step is not None and step != self.n + 1:
            raise ValueError(f"out-of-order update: expected step {self.n + 1}, got {step}")
        x_new = np.asarray(x_new, dtype=np.float64)
        x_star_prev = np.asarray(x_star_prev, dtype=np.float64)
        u_new = np.asarray(u_new, dtype=np.float64)
        self.n += 1
        sq = float(x_new @ x_new)
        norm = math.sqrt(sq)
        self.running_sup_norm = max(self.running_sup_norm, norm)
        self._push_window(norm)
        self.sum_sq += sq
        # 2 sqrt(h) <x*, sigma xi> recovered from the stored shock.
        self.M_n += 2.0 * float(x_star_prev @ u_new)
        if np.ndim(sigma_prev) == 0:
            fro = float(sigma_prev)
        else:
            fro = float(np.linalg.norm(np.asarray(sigma_prev, dtype=np.float64)))
        xs_sq = float(x_star_prev @ x_star_prev)
        self.QV_bound += 4.0 * self.h * xs_sq * fro * fro
        self.shock_sq_sum += float(u_new @ u_new) / self.h
        if self.n in CHECKPOINTS:
            self._snapshot()

    def _snapshot(self) -> None:
        n = self.n
        self.checkpoints.append(
            Checkpoint(
                n=n,
                time_avg_sq=self.sum_sq / n,
                m_over_n=self.M_n / n,
                m_abs_over_qv=abs(self.M_n) / max(1.0, self.QV_bound),
                shock_sq_avg=self.shock_sq_sum / n,
                sup_norm=self.running_sup_norm,
            )
        )

    @property
    def time_avg_sq(self) -> float:
        return self.sum_sq / self.n if self.n else 0.0

    @property
    def shock_sq_avg(self) -> float:
        return self.shock_sq_sum / self.n if self.n else 0.0

    def window_extremes(self) -> tuple[float, float]:
        filled = min(self._ring_len, self.window)
        if filled == 0:
            return math.inf, 0.0
        vals = self._ring[:filled]
        return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class PathSummary:
    path_index: int
    final_norm: float
    sup_norm: float
    window_min: float
    window_max: float
    time_avg_sq: float
    m_over_n: float
    m_abs_over_qv: float
    shock_sq_avg: float
    checkpoints: tuple[Checkpoint, ...] = ()

    def checkpoint_time_avgs(self) -> dict[int, float]:
        return {c.n: c.time_avg_sq for c in self.checkpoints}


def summarize(state: DiagnosticState, path_index: int, final_norm: float) -> PathSummary:
    wmin, wmax = state.window_extremes()
    n = max(state.n, 1)
    return PathSummary(
        path_index=path_index,
        final_norm=final_norm,
        sup_norm=state.running_sup_norm,
        window_min=wmin,
        window_max=wmax,
        time_avg_sq=state.sum_sq / n,
        m_over_n=state.M_n / n,
        m_abs_over_qv=abs(state.M_n) / max(1.0, state.QV_bound),
        shock_sq_avg=state.shock_sq_sum / n,
        checkpoints=tuple(state.checkpoints),
    )


class BatchDiagnostics:
    """Vectorised twin of DiagnosticState for lockstep path blocks.

    ``update`` only copies one step's states, stages, shocks and sigma norm
    into fixed (CHUNK, m, d) buffers.  Every CHUNK steps, and before any
    summary, ``_flush`` folds the buffered steps into the running
    statistics with whole-chunk calls: ``np.cumsum`` for the sums and
    ``np.maximum.accumulate`` for the sup, with checkpoint snapshots read
    at their exact step.  A cumsum adds in step order and a maximum is
    exact, so every statistic is the same sequence of float operations as a
    per-step fold.  ``n`` counts the folded steps.
    """

    CHUNK = 64

    def __init__(self, m: int, d: int, h: float, window: int):
        self.m, self.d, self.h = m, d, float(h)
        self.window = int(window)
        self.n = 0
        self.sup = np.zeros(m)
        self.sum_sq = np.zeros(m)
        self.M = np.zeros(m)
        self.QV = np.zeros(m)
        self.shock_sq = np.zeros(m)
        self.ring = np.empty((self.window, m))
        self.ring_len = 0
        self.snapshots: list[tuple[int, dict[str, np.ndarray]]] = []
        self._x = np.empty((self.CHUNK, m, d))
        self._xs = np.empty((self.CHUNK, m, d))
        self._u = np.empty((self.CHUNK, m, d))
        self._fro = np.empty(self.CHUNK)
        self._k = 0

    def start(self, x0: np.ndarray) -> None:
        norms = np.linalg.norm(x0, axis=1)
        self.sup = norms.copy()
        self.ring[self.ring_len % self.window] = norms
        self.ring_len += 1

    def update(self, x_new: np.ndarray, x_star_prev: np.ndarray, u_new: np.ndarray, fro_prev: float) -> None:
        k = self._k
        self._x[k] = x_new
        self._xs[k] = x_star_prev
        self._u[k] = u_new
        self._fro[k] = fro_prev
        self._k = k + 1
        if self._k == self.CHUNK:
            self._flush()

    @staticmethod
    def _fold(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Running sums acc + terms[0] + ... + terms[t] for every t, in step order."""
        terms[0] += acc
        return np.cumsum(terms, axis=0, out=terms)

    def _flush(self) -> None:
        k = self._k
        if k == 0:
            return
        self._k = 0
        m, d, n0 = self.m, self.d, self.n
        # (k * m, d) rows: the same row reductions a single step makes.
        x = self._x[:k].reshape(k * m, d)
        xs = self._xs[:k].reshape(k * m, d)
        u = self._u[:k].reshape(k * m, d)
        fro = self._fro[:k, None]
        norms = np.linalg.norm(x, axis=1).reshape(k, m)
        sup = np.maximum.accumulate(norms, axis=0)
        np.maximum(sup, self.sup, out=sup)
        first = max(0, k - self.window)
        rows = (self.ring_len + np.arange(first, k)) % self.window
        self.ring[rows] = norms[first:]
        self.ring_len += k
        sum_sq = self._fold(self.sum_sq, norms * norms)
        M = self._fold(self.M, 2.0 * np.einsum("ij,ij->i", xs, u).reshape(k, m))
        xs_sq = np.einsum("ij,ij->i", xs, xs).reshape(k, m)
        QV = self._fold(self.QV, 4.0 * self.h * xs_sq * fro * fro)
        shock_sq = self._fold(self.shock_sq, np.einsum("ij,ij->i", u, u).reshape(k, m) / self.h)
        self.n = n0 + k
        for cn in CHECKPOINTS:
            if n0 < cn <= self.n:
                t = cn - n0 - 1
                self.snapshots.append(
                    (
                        cn,
                        {
                            "time_avg_sq": sum_sq[t] / cn,
                            "m_over_n": M[t] / cn,
                            "m_abs_over_qv": np.abs(M[t]) / np.maximum(1.0, QV[t]),
                            "shock_sq_avg": shock_sq[t] / cn,
                            "sup_norm": sup[t].copy(),
                        },
                    )
                )
        self.sup = sup[-1].copy()
        self.sum_sq = sum_sq[-1].copy()
        self.M = M[-1].copy()
        self.QV = QV[-1].copy()
        self.shock_sq = shock_sq[-1].copy()

    def summaries(self, path_indices, final_norms: np.ndarray) -> list[PathSummary]:
        self._flush()
        filled = min(self.ring_len, self.window)
        wmin = self.ring[:filled].min(axis=0)
        wmax = self.ring[:filled].max(axis=0)
        n = max(self.n, 1)
        out = []
        for i, p in enumerate(path_indices):
            cps = tuple(
                Checkpoint(
                    n=cn,
                    time_avg_sq=float(snap["time_avg_sq"][i]),
                    m_over_n=float(snap["m_over_n"][i]),
                    m_abs_over_qv=float(snap["m_abs_over_qv"][i]),
                    shock_sq_avg=float(snap["shock_sq_avg"][i]),
                    sup_norm=float(snap["sup_norm"][i]),
                )
                for cn, snap in self.snapshots
            )
            out.append(
                PathSummary(
                    path_index=int(p),
                    final_norm=float(final_norms[i]),
                    sup_norm=float(self.sup[i]),
                    window_min=float(wmin[i]),
                    window_max=float(wmax[i]),
                    time_avg_sq=float(self.sum_sq[i] / n),
                    m_over_n=float(self.M[i] / n),
                    m_abs_over_qv=float(abs(self.M[i]) / max(1.0, self.QV[i])),
                    shock_sq_avg=float(self.shock_sq[i] / n),
                    checkpoints=cps,
                )
            )
        return out


def r_function(drift, h: float, x: np.ndarray) -> float:
    """R(x) = 2 <x, f(x)> + h ||f(x)||^2; positive away from 0, zero at 0.

    Along a path that settles, R evaluated at the implicit stage tends to
    zero, which is the residual evidence used by the convergence checks.
    """
    x = np.asarray(x, dtype=np.float64)
    fx = drift(x)
    return float(2.0 * np.dot(x, fx) + h * np.dot(fx, fx))
