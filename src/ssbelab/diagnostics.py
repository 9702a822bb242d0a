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
(k, d) at m = 1, and folds them with one reduction for the four sums and
one for the sup between checkpoints, bit-identical to a per-step fold.  The fold holds no
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


def _norms(x: np.ndarray) -> np.ndarray:
    """The norms of the (..., d) states ``x``, shaped (...).  At d = 1 a norm is
    sqrt(x * x), the product and root ``np.linalg.norm`` takes on a one-entry
    row, so it overflows alike, past |x| ~ 1.34e154 (see ``_retake_overflowed``)."""
    if x.shape[-1] == 1:
        x = x[..., 0]
        return np.sqrt(x * x)
    return np.linalg.norm(x.reshape(-1, x.shape[-1]), axis=1).reshape(x.shape[:-1])


def _retake_overflowed(x: np.ndarray, norms: np.ndarray) -> bool:
    """Take again, scaled by 2^-600 (exact), each of ``norms`` that overflowed from a
    finite state of ``x``; True when every norm is then finite."""
    big = np.isinf(norms) & np.isfinite(x).all(axis=-1)
    norms[big] = _norms(x[big] * 2.0**-600) * 2.0**600
    return bool(np.isfinite(norms).all())


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
    reduction over each stretch of the chunk that ends at a checkpoint or
    at the chunk's end, so a snapshot reads its exact step: one
    ``np.add.reduce`` along the steps adds the four sums, held as the rows
    of ``sums`` (``np.cumsum`` for a lone path), and ``np.maximum.reduce``
    takes the sup.  The sums add in step order and a maximum is exact, so
    every statistic is the same sequence of float operations as a per-step
    fold, however the steps are split into chunks.  ``n`` counts the
    folded steps, ``last_norms`` the norms of the states they reached.  A
    chunk holding a state of non-finite norm (the sign of a non-finite
    shock or state) is folded up to the step before it, and
    NonFiniteError names that step.  The step loop meets every such
    failure here.
    """

    def __init__(self, m: int, d: int, h: float, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.m, self.d, self.h = m, d, float(h)
        self.window = int(window)
        self.n = 0
        self.sup = np.zeros(m)
        # The running sums of ||X||^2, of the martingale M, of its QV bound
        # and of ||U||^2 / h, one row each.
        self.sums = np.zeros((4, m))
        self.sum_sq, self.M, self.QV, self.shock_sq = self.sums
        self.ring = np.empty((self.window, m))
        self.ring_len = 0
        self.snapshots: list[tuple[int, dict[str, np.ndarray]]] = []

    def start(self, x0: np.ndarray) -> None:
        norms = _norms(x0)
        if not np.isfinite(norms).all():
            _retake_overflowed(x0, norms)
        self.last_norms = norms
        self.sup = norms.copy()
        self._push(norms[None])
        _check_finite(norms[None], 0)

    def update(self, x_new: np.ndarray, x_star_prev: np.ndarray, u_new: np.ndarray, fro_prev: float) -> None:
        """Fold one step: the states, stages and shocks of the block, and sigma's norm."""
        shape = (1, self.m, self.d)
        x, xs, u = (np.reshape(a, shape) for a in (x_new, x_star_prev, u_new))
        self.fold(x, xs, u, np.array([fro_prev], dtype=np.float64))

    def _push(self, norms: np.ndarray) -> None:
        """Write the last ``window`` rows of ``norms`` into the ring, in at most two slices."""
        tail = norms[-self.window :]
        at = (self.ring_len + len(norms) - len(tail)) % self.window
        split = min(len(tail), self.window - at)
        self.ring[at : at + split] = tail[:split]
        self.ring[: len(tail) - split] = tail[split:]
        self.ring_len += len(norms)

    def fold(self, x: np.ndarray, xs: np.ndarray, u: np.ndarray, fro: np.ndarray) -> None:
        """Fold steps n+1 .. n+k: X(n+j+1) = x[j], x*(n+j) = xs[j], U(n+j+1) = u[j].

        ``x``, ``xs`` and ``u`` have shape (k, m, d), or (k, d) at m = 1 and
        (k,) at m = d = 1, and ``fro[j]`` is ||sigma(n+j)||_F.  The arrays are read, never kept or
        written.
        """
        k = len(x)
        if k == 0:
            return
        m, d, n0, h = self.m, self.d, self.n, self.h
        x, xs, u = (a.reshape(k, m, d) for a in (x, xs, u))
        norms = _norms(x)
        if not np.isfinite(norms).all() and not _retake_overflowed(x, norms):
            t = int(np.argmin(np.isfinite(norms).all(axis=1)))
            self.fold(*(a[:t] for a in (x, xs, u, fro)))
            _check_finite(norms, n0, u)
        self._push(norms)
        if d == 1:
            # A one-term einsum is the product, but for the sign of a zero
            # product, which no sum started at +0.0 can show.
            xs, u, dot = xs[..., 0], u[..., 0], np.multiply
        else:
            xs, u = xs.reshape(k * m, d), u.reshape(k * m, d)
            dot = lambda a, b, out: np.einsum("ij,ij->i", a, b, out=out.reshape(k * m))
        # Each step's four terms, in the operation order of a per-step fold:
        # ||X||^2, 2 <x*, U>, ((4 h ||x*||^2) ||sigma||_F) ||sigma||_F, ||U||^2 / h.
        terms = np.empty((4, k, m))
        sq, mart, qv, shock = terms
        np.multiply(norms, norms, out=sq)
        dot(xs, u, out=mart)
        mart *= 2.0
        dot(xs, xs, out=qv)
        qv *= 4.0 * h
        fro = fro[:, None]
        qv *= fro
        qv *= fro
        dot(u, u, out=shock)
        shock /= h
        # Each stretch ends at a checkpoint or at the chunk's end, so a
        # snapshot reads the sums of its exact step.
        lo = 0
        for hi in [cn - n0 for cn in CHECKPOINTS if n0 < cn < n0 + k] + [k]:
            self.sup = np.maximum(self.sup, np.maximum.reduce(norms[lo:hi], axis=0))
            stretch = terms[:, lo:hi]
            stretch[:, 0] += self.sums
            if m == 1:
                # numpy sums a lone contiguous column pairwise, and rows in order.
                self.sums[:] = np.cumsum(stretch, axis=1, out=stretch)[:, -1]
            else:
                np.add.reduce(stretch, axis=1, out=self.sums)
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

        def rows(stats):
            """One dict of floats per path; each column is read once, by tolist."""
            return [dict(zip(stats, v)) for v in zip(*(np.asarray(c).tolist() for c in stats.values()))]

        final = rows(final)
        snapshots = [(cn, rows(snap)) for cn, snap in self.snapshots]
        return [
            PathSummary(
                path_index=int(p),
                checkpoints=tuple(Checkpoint(n=cn, **snap[i]) for cn, snap in snapshots),
                **final[i],
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

