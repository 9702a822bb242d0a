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

The statistics have one implementation, the chunked fold of
``BatchDiagnostics``: it buffers ``BatchDiagnostics.CHUNK`` steps of a
block of m paths and folds them in whole-chunk numpy calls, bit-identical
to a per-step fold.  The lockstep engine feeds it a block;
``DiagnosticState`` is its one-path view (m = 1), which ``integrate`` feeds
one (d,) state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHECKPOINTS = (10**3, 10**4, 10**5)


class NonFiniteError(ArithmeticError):
    """A shock or state left the double range at ``step_index``, in block row ``row_index``."""


def _check_finite(norms: np.ndarray, n0: int, shocks=None) -> None:
    """Raise NonFiniteError at the first non-finite state norm.

    Axis 0 of ``norms`` counts steps from ``n0`` and axis 1 the rows of a
    block.  The error names the first step holding one, with its first such
    row, and blames that step's shock when the shock is itself not finite.
    """
    finite = np.isfinite(norms)
    if not finite.all():
        t, i = np.argwhere(~finite)[0]
        if shocks is not None and not np.isfinite(shocks[t, i]).all():
            exc = NonFiniteError(f"non-finite shock: {shocks[t, i]}")
        else:
            exc = NonFiniteError(f"non-finite state norm: {norms[t, i]}")
        exc.step_index, exc.row_index = n0 + int(t), int(i)
        raise exc


@dataclass
class Checkpoint:
    n: int
    time_avg_sq: float
    m_over_n: float
    m_abs_over_qv: float
    shock_sq_avg: float
    sup_norm: float


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


class BatchDiagnostics:
    """Diagnostics of a block of m paths advanced in lockstep.

    ``update`` only copies one step's states, stages, shocks and sigma norm
    into fixed (CHUNK, m, d) buffers.  Every CHUNK steps, and before any
    summary, ``_flush`` folds the buffered steps into the running
    statistics with whole-chunk calls: ``np.cumsum`` for the sums and
    ``np.maximum.accumulate`` for the sup, with checkpoint snapshots read
    at their exact step.  A cumsum adds in step order and a maximum is
    exact, so every statistic is the same sequence of float operations as a
    per-step fold.  ``n`` counts the folded steps.  A flush that folded a
    state of non-finite norm, the sign of a non-finite shock or state,
    raises NonFiniteError naming its step, after the fold, so the
    statistics stay readable.  Both engines meet every such failure here.
    """

    CHUNK = 64

    def __init__(self, m: int, d: int, h: float, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
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
        _check_finite(norms[None], 0)

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
        _check_finite(norms, n0, self._u[:k])

    def first_failure(self, exc: Exception, step: int) -> tuple[Exception, int]:
        """The failure to report for ``exc``, raised at ``step``, and its step.

        A non-finite state among the buffered steps, flushed here, came first.
        """
        try:
            self._flush()
        except NonFiniteError as earlier:
            exc = earlier
        return exc, exc.step_index if isinstance(exc, NonFiniteError) else step

    def summaries(self, path_indices, final_norms: np.ndarray) -> list[PathSummary]:
        self._flush()
        filled = min(self.ring_len, self.window)
        wmin = self.ring[:filled].min(axis=0)
        wmax = self.ring[:filled].max(axis=0)
        n = max(self.n, 1)
        out = []
        for i, p in enumerate(path_indices):
            cps = tuple(
                Checkpoint(n=cn, **{k: float(v[i]) for k, v in snap.items()})
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


class DiagnosticState(BatchDiagnostics):
    """One path's diagnostics: the batch fold at m = 1, fed (d,) states."""

    # An entry in this class's own dict: perfbench's tracer wraps methods
    # per class, and this keeps one span per integrate step.
    update = BatchDiagnostics.update

    def __init__(self, d: int, h: float, window: int):
        super().__init__(1, d, h, window)

    def start(self, x0: np.ndarray) -> None:
        super().start(np.reshape(x0, (1, self.d)))


def summarize(state: DiagnosticState, path_index: int, final_norm: float) -> PathSummary:
    return state.summaries([path_index], np.array([final_norm]))[0]

