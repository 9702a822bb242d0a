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
evidence survives without storing whole paths.  A snapshot and a path's
final summary share one definition of these statistics,
``BatchDiagnostics._stats``.

The statistics have one implementation, ``BatchDiagnostics.fold``: it
takes k consecutive steps of a block of m paths as (k, m, d) arrays, or
(k, d) at m = 1, and folds them with one row reduction per statistic
between checkpoints, bit-identical to a per-step fold.  The fold holds no
step buffers of its own.  The engines' shared step loop
(``integrator._step_loop``) calls it once per chunk; the chunk arrays
belong to that loop and are only read here: a full record's own slices or
scratch rows, with the shocks as ``NoiseSchedule.shocks`` returned them.  ``DiagnosticState`` is the
one-path view (m = 1), started from a (d,) state.
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

    ``fold`` folds a chunk of steps into the running statistics with one
    row reduction per statistic over each stretch of the chunk that ends at
    a checkpoint or at the chunk's end, so a snapshot reads its exact step:
    ``np.add.reduce`` along the steps for the sums (``np.cumsum`` for a
    lone path) and ``np.maximum.reduce`` for the sup.  Both sums add in
    step order and a maximum is exact, so every statistic is the same
    sequence of float operations as a per-step fold, however the steps are
    split into chunks.  ``n`` counts the folded steps, ``last_norms`` the
    norms of the states they reached.  A chunk holding a state of
    non-finite norm (the sign of a non-finite shock or state) is folded up
    to the step before it, and NonFiniteError names that step.  The step
    loop meets every such failure here.
    """

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

    def start(self, x0: np.ndarray) -> None:
        norms = np.linalg.norm(x0, axis=1)
        self.last_norms = norms
        self.sup = norms.copy()
        self.ring[self.ring_len % self.window] = norms
        self.ring_len += 1
        _check_finite(norms[None], 0)

    def update(self, x_new: np.ndarray, x_star_prev: np.ndarray, u_new: np.ndarray, fro_prev: float) -> None:
        """Fold one step: the states, stages and shocks of the block, and sigma's norm."""
        shape = (1, self.m, self.d)
        x, xs, u = (np.reshape(a, shape) for a in (x_new, x_star_prev, u_new))
        self.fold(x, xs, u, np.array([fro_prev], dtype=np.float64))

    @staticmethod
    def _sum(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """acc + terms[0] + terms[1] + ..., added in step order; ``terms`` is overwritten."""
        terms[0] += acc
        if terms.shape[1] == 1:
            # numpy sums a lone contiguous column pairwise, and rows in order.
            return np.cumsum(terms, axis=0, out=terms)[-1].copy()
        return np.add.reduce(terms, axis=0)

    def fold(self, x: np.ndarray, xs: np.ndarray, u: np.ndarray, fro: np.ndarray) -> None:
        """Fold steps n+1 .. n+k: X(n+j+1) = x[j], x*(n+j) = xs[j], U(n+j+1) = u[j].

        ``x``, ``xs`` and ``u`` have shape (k, m, d), or (k, d) at m = 1, and
        ``fro[j]`` is ||sigma(n+j)||_F.  The arrays are read, never kept or
        written.
        """
        k = len(x)
        if k == 0:
            return
        m, d, n0 = self.m, self.d, self.n
        x, xs, u = (a.reshape(k, m, d) for a in (x, xs, u))
        # (k * m, d) rows: the same row reductions a single step makes.
        norms = np.linalg.norm(x.reshape(k * m, d), axis=1).reshape(k, m)
        if not np.isfinite(norms).all():
            t = int(np.argmin(np.isfinite(norms).all(axis=1)))
            self.fold(*(a[:t] for a in (x, xs, u, fro)))
            _check_finite(norms, n0, u)
        xs_rows, u_rows = xs.reshape(k * m, d), u.reshape(k * m, d)
        fro = fro[:, None]
        first = max(0, k - self.window)
        rows = (self.ring_len + np.arange(first, k)) % self.window
        self.ring[rows] = norms[first:]
        self.ring_len += k
        sq = norms * norms
        mart = 2.0 * np.einsum("ij,ij->i", xs_rows, u_rows).reshape(k, m)
        xs_sq = np.einsum("ij,ij->i", xs_rows, xs_rows).reshape(k, m)
        qv = 4.0 * self.h * xs_sq * fro * fro
        u_sq = np.einsum("ij,ij->i", u_rows, u_rows).reshape(k, m)
        shock = u_sq / self.h
        # Each stretch ends at a checkpoint or at the chunk's end, so a
        # snapshot reads the sums of its exact step.
        ends = sorted({cn - n0 for cn in CHECKPOINTS if n0 < cn <= n0 + k} | {k})
        lo = 0
        for hi in ends:
            self.sup = np.maximum(self.sup, np.maximum.reduce(norms[lo:hi], axis=0))
            self.sum_sq = self._sum(self.sum_sq, sq[lo:hi])
            self.M = self._sum(self.M, mart[lo:hi])
            self.QV = self._sum(self.QV, qv[lo:hi])
            self.shock_sq = self._sum(self.shock_sq, shock[lo:hi])
            self.n = cn = n0 + hi
            if cn in CHECKPOINTS:
                self.snapshots.append((cn, self._stats(cn)))
            lo = hi
        self.last_norms = norms[-1].copy()

    def first_failure(self, exc: Exception, step: int, *chunk: np.ndarray) -> tuple[Exception, int]:
        """The failure to report for ``exc``, raised at ``step``, and its step.

        The fold raised a NonFiniteError after folding the steps before it.
        The stage raised a SolverError: the steps of the step loop's (x, xs,
        u, fro) ``chunk``, which starts at step ``n``, before ``step`` completed;
        they are folded here, and a non-finite state among them came first.
        """
        if isinstance(exc, NonFiniteError):
            return exc, exc.step_index
        try:
            self.fold(*(a[: step - self.n] for a in chunk))
        except NonFiniteError as earlier:
            return earlier, earlier.step_index
        return exc, step

    def _stats(self, n: int) -> dict[str, np.ndarray]:
        """The Checkpoint statistics of the block after ``n`` steps, one array per field."""
        return {
            "time_avg_sq": self.sum_sq / n,
            "m_over_n": self.M / n,
            # fmax: a NaN bound (an overflowed 4 h ||x*||^2 times a zero norm) counts as 1.
            "m_abs_over_qv": np.abs(self.M) / np.fmax(1.0, self.QV),
            "shock_sq_avg": self.shock_sq / n,
            "sup_norm": self.sup,
        }

    def summaries(self, path_indices, final_norms: np.ndarray) -> list[PathSummary]:
        filled = min(self.ring_len, self.window)
        final = self._stats(max(self.n, 1))
        final.update(
            final_norm=final_norms,
            window_min=self.ring[:filled].min(axis=0),
            window_max=self.ring[:filled].max(axis=0),
        )

        def row(cols, i):
            return {k: float(v[i]) for k, v in cols.items()}

        return [
            PathSummary(
                path_index=int(p),
                checkpoints=tuple(Checkpoint(n=cn, **row(snap, i)) for cn, snap in self.snapshots),
                **row(final, i),
            )
            for i, p in enumerate(path_indices)
        ]


class DiagnosticState(BatchDiagnostics):
    """One path's diagnostics: the batch fold at m = 1, started from a (d,) state."""

    # An entry in this class's own dict: perfbench's tracer wraps methods
    # per class, and looks this one up by name.
    update = BatchDiagnostics.update

    def __init__(self, d: int, h: float, window: int):
        super().__init__(1, d, h, window)

    def start(self, x0: np.ndarray) -> None:
        super().start(np.reshape(x0, (1, self.d)))


def summarize(state: DiagnosticState, path_index: int, final_norm: float) -> PathSummary:
    return state.summaries([path_index], np.array([final_norm]))[0]

