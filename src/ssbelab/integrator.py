"""Path generation for the split-step scheme.

One step reads

    x*(n)   solves  x* = X(n) - h f(x*)
    X(n+1) = x*(n) + U(n+1),     U(n+1) = sqrt(h) sigma(n) xi(n+1)

The shock U is stored exactly as computed, so the stored recurrence
X[n+1] = Xstar[n] + U[n+1] holds at bit level.

Both engines take the implicit stage from one rule, read from the drift's
declared structure (``stage_rule``): an affine drift f(x) = -A x applies
the precomputed one-step map C(h) = (I - hA)^{-1}; a block of
componentwise states goes through ``solve_componentwise`` whole and a
block of radial states through ``solve_radial`` row by row; any other
state goes through ``solve_scalar`` (d = 1) or ``solve_vector``.

Both take the shock from one rule too, ``NoiseSchedule.shocks``, and
fold diagnostics through one ``BatchDiagnostics``.  Neither product
rounds differently for one path and for a block, so a path's values
depend on ``(master_seed, path_index)`` alone, not on the block it runs in.
A failed stage solve, or a shock or state that is not finite, stops either
engine with one error, ``PathError``, naming path, master_seed and step.

``integrate`` generates one path with its full, thinned or summary record.
``integrate_paths_lockstep`` advances a block of paths in parallel arrays
(one substream per path, noise drawn blockwise in each path's own order),
which is what makes desk-scale ensembles cheap; it reproduces ``integrate``
path for path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ssbelab.affine import build_C
from ssbelab.diagnostics import (
    BatchDiagnostics,
    DiagnosticState,
    NonFiniteError,
    PathSummary,
    summarize,
)
from ssbelab.gaussian import GaussianStream, derive_substream
from ssbelab.implicit import (
    SolverError,
    solve_componentwise,
    solve_radial,
    solve_scalar,
    solve_vector,
)
from ssbelab.schedules import fixed_order_product

# Steps of noise drawn per stream at a time.
NOISE_BLOCK = 4096

ROOT_SELECTION_POLICY = "bracket root toward the origin (scalar); Newton basin of y0=x (vector)"


@dataclass(eq=False)
class PathRecord:
    h: float
    N: int
    d: int
    r: int
    drift_id: str
    schedule_id: str
    master_seed: int
    path_index: int
    tol: float
    record_mode: str
    X: Optional[np.ndarray]  # (K, d) stored states
    X_star: Optional[np.ndarray]  # (K-1, d) implicit stages (full mode only)
    U: Optional[np.ndarray]  # (K-1, d); row n holds U(n+1)
    stored_steps: Optional[np.ndarray]  # indices of stored rows of X
    summary: PathSummary
    selection_policy: str = ROOT_SELECTION_POLICY


def _parse_record_mode(record_mode: str, steps: int) -> tuple[str, int]:
    if record_mode == "full":
        return "full", 1
    if record_mode == "summary":
        return "summary", 0
    if record_mode.startswith("thin:"):
        k = int(record_mode.split(":", 1)[1])
        if k < 1:
            raise ValueError("thinning stride must be >= 1")
        return "thin", k
    raise ValueError(f"unknown record mode {record_mode!r}")


def default_window(steps: int, frac: float = 0.01) -> int:
    """Trailing window: the last ``frac`` of the steps, floored at 1000, capped at N."""
    return max(1, min(steps, max(1000, math.ceil(frac * steps))))


def _check_inputs(drift, schedule, zeta, steps: int, r: int) -> np.ndarray:
    """Both engines' input check; returns zeta as a finite float array of shape (d,)."""
    d = drift.d
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.float64))
    if zeta.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},)")
    if not np.isfinite(zeta).all():
        raise ValueError(f"initial state must be finite, got {zeta.tolist()}")
    if schedule.d != d or schedule.r != r:
        raise ValueError("drift, schedule and stream dimensions disagree")
    if steps < 1:
        raise ValueError("need at least one step")
    return zeta


def _solve_path(drift, h, x, tol):
    if drift.d == 1:
        return np.array([solve_scalar(drift, h, float(x[0]), tol).x_star])
    return np.asarray(solve_vector(drift, h, x, tol).x_star, dtype=np.float64)


def _solve_rows(drift, h, X, tol):
    out = np.empty_like(X)
    for i, x in enumerate(X):
        try:
            out[i] = _solve_path(drift, h, x, tol)
        except SolverError as exc:
            exc.row_index = i
            raise
    return out


def stage_rule(drift, h: float, tol: float, block: bool):
    """The implicit stage x -> x*, x* = x - h f(x*), chosen from the drift's structure.

    Returns a map on one (d,) state, or on an (m, d) block of states when
    ``block`` is set.  An affine drift applies C(h) = (I - hA)^{-1} through
    ``fixed_order_product``, so a lone state and each row of a block round
    alike; a block of componentwise states is solved whole by
    ``solve_componentwise``, a block of radial states (d > 1) row by row by
    ``solve_radial``, the loop ``solve_vector`` runs on one state; any other
    state goes through ``solve_scalar`` (d = 1) or ``solve_vector``.  A
    failing row of a block is named by ``SolverError.row_index``.
    """
    if drift.affine:
        C_T = build_C(drift.affine_matrix, h).T
        return lambda x: fixed_order_product(x, C_T)
    if not block:
        return lambda x: _solve_path(drift, h, x, tol)
    if drift.componentwise:
        return lambda X: solve_componentwise(drift, h, X, tol)[0]
    if drift.radial and drift.d > 1:
        # Each row's radius solve goes through this module's solve_scalar.
        return lambda X: solve_radial(drift, h, X, tol, solve_scalar)[0]
    return lambda X: _solve_rows(drift, h, X, tol)


class PathError(RuntimeError):
    """A path failed; the message names the path, its master_seed and the step.

    The cause, a SolverError or NonFiniteError, is chained.  ``integrate``
    attaches the ``partial_summary`` and ``partial_states`` of the steps it
    completed, the lockstep engine their ``partial_summaries``.
    """

    def __init__(self, cause, path_index: int, master_seed: int, step_index: int):
        super().__init__(
            f"path {path_index} (master_seed {master_seed}) failed at step {step_index}: {cause}"
        )
        self.path_index = path_index
        self.master_seed = master_seed
        self.step_index = step_index


def integrate(
    drift,
    schedule,
    zeta,
    steps: int,
    stream: GaussianStream,
    record_mode: str = "full",
    tol: float = 1e-12,
    window: Optional[int] = None,
) -> PathRecord:
    """Generate one path of the scheme.

    A failed implicit solve, or a shock or state that is not finite, stops
    the run with a PathError carrying the partial record.
    """
    d = drift.d
    zeta = _check_inputs(drift, schedule, zeta, steps, stream.r)
    mode, stride = _parse_record_mode(record_mode, steps)
    h = schedule.h
    window = default_window(steps) if window is None else int(window)
    stage = stage_rule(drift, h, tol, block=False)

    diag = DiagnosticState(d=d, h=h, window=window)

    full = mode == "full"
    X = X_star = U = stored = None
    if full:
        X, X_star, U = np.empty((steps + 1, d)), np.empty((steps, d)), np.empty((steps, d))
        X[0] = zeta
    thin_rows: list[tuple[int, np.ndarray]] = [(0, zeta.copy())] if mode == "thin" else []

    x = zeta.copy()
    step = 0
    # Overflow is not warned about: the fold's check names the step.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            diag.start(zeta)
            while step < steps:
                xi = stream.draw_block(min(NOISE_BLOCK, steps - step))
                U_blk, fro_blk = schedule.shocks(xi, step)
                for u, fro in zip(U_blk, fro_blk):
                    x_star = stage(x)
                    x = x_star + u
                    if full:
                        X[step + 1], X_star[step], U[step] = x, x_star, u
                    elif mode == "thin" and ((step + 1) % stride == 0 or step + 1 == steps):
                        thin_rows.append((step + 1, x.copy()))
                    diag.update(x, x_star, u, fro)
                    step += 1
            # The row norm lockstep takes: without ``axis`` numpy uses
            # x.dot(x), which may round differently for d > 1.
            summary = summarize(diag, stream.path_index, float(np.linalg.norm(x, axis=-1)))
        except (SolverError, NonFiniteError) as exc:
            cause, at = diag.first_failure(exc, step)
            err = PathError(cause, stream.path_index, stream.master_seed, at)
            err.partial_summary = summarize(diag, stream.path_index, np.linalg.norm(x, axis=-1))
            err.partial_states = (
                X[: step + 1].copy() if full
                else np.vstack([row for _, row in thin_rows]) if mode == "thin" else None
            )
            raise err from cause

    if full:
        stored = np.arange(steps + 1)
    elif mode == "thin":
        stored = np.array([i for i, _ in thin_rows])
        X = np.vstack([row for _, row in thin_rows])
    return PathRecord(
        h=h,
        N=steps,
        d=d,
        r=stream.r,
        drift_id=drift.name,
        schedule_id=schedule.kind,
        master_seed=stream.master_seed,
        path_index=stream.path_index,
        tol=tol,
        record_mode=record_mode,
        X=X,
        X_star=X_star,
        U=U,
        stored_steps=stored,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# Lockstep ensembles.


def integrate_paths_lockstep(
    drift,
    schedule,
    zeta,
    steps: int,
    r: int,
    master_seed: int,
    path_indices,
    tol: float = 1e-12,
    window: Optional[int] = None,
) -> list[PathSummary]:
    """Advance many paths in lockstep; summary statistics only.

    Each path draws from its own derived substream, in the same order the
    per-path integrator does, and its shocks come from the same
    ``NoiseSchedule.shocks``, assembled one diagnostics chunk at a time.
    The stage is ``stage_rule`` on the whole (m, d) block.  A failing path
    stops the run with a PathError naming it.
    """
    d = drift.d
    zeta = _check_inputs(drift, schedule, zeta, steps, r)
    path_indices = list(path_indices)
    m = len(path_indices)
    if m == 0:
        return []
    window = default_window(steps) if window is None else int(window)
    streams = [derive_substream(master_seed, p, r) for p in path_indices]
    stage = stage_rule(drift, schedule.h, tol, block=True)

    diag = BatchDiagnostics(m, d, schedule.h, window)
    X = np.tile(zeta, (m, 1))

    chunk = BatchDiagnostics.CHUNK
    step = 0
    # Overflow is not warned about: the fold's check names the step.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            diag.start(X)
            while step < steps:
                # (block, m, r): each path's next vectors from its own stream.
                block = min(NOISE_BLOCK, steps - step)
                noise = np.stack([s.draw_block(block) for s in streams], axis=1)
                for c in range(0, block, chunk):
                    U, fro = schedule.shocks(noise[c : c + chunk], step)
                    for u, f in zip(U, fro):
                        x_star = stage(X)
                        X = x_star + u
                        diag.update(X, x_star, u, f)
                        step += 1
            return diag.summaries(path_indices, np.linalg.norm(X, axis=1))
        except (SolverError, NonFiniteError) as exc:
            cause, at = diag.first_failure(exc, step)
            err = PathError(cause, path_indices[cause.row_index], master_seed, at)
            err.partial_summaries = diag.summaries(path_indices, np.linalg.norm(X, axis=1))
            raise err from cause


# ---------------------------------------------------------------------------
# Identity checks over full records.


def step_identity_residuals(record: PathRecord, drift) -> np.ndarray:
    """Relative residuals of ||X(n)||^2 = ||x*||^2 + 2h<f(x*),x*> + h^2||f(x*)||^2."""
    if record.X_star is None:
        raise ValueError("step identity needs a full record")
    h = record.h
    xs = record.X_star
    fx = drift(xs)
    lhs = np.einsum("ij,ij->i", record.X[:-1], record.X[:-1])
    rhs = (
        np.einsum("ij,ij->i", xs, xs)
        + 2.0 * h * np.einsum("ij,ij->i", fx, xs)
        + h * h * np.einsum("ij,ij->i", fx, fx)
    )
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))


def energy_identity_residuals(record: PathRecord, drift) -> np.ndarray:
    """Relative error of the summed energy representation of ||X(n)||^2.

    Reconstructs ||X(n)||^2 from the initial energy, the accumulated drift
    work, the squared shocks, and the cross-term martingale, then compares
    with the stored value at every step.  Error is measured relative to
    max(1, |stored|): the identity's constituent sums are O(1)-scaled, so a
    pure ratio would be dominated by float noise whenever the path passes
    near the origin.
    """
    if record.X_star is None:
        raise ValueError("energy identity needs a full record")
    h = record.h
    xs = record.X_star
    fx = drift(xs)
    drift_work = np.cumsum(np.einsum("ij,ij->i", fx, xs))
    drift_sq = np.cumsum(np.einsum("ij,ij->i", fx, fx))
    shock_sq = np.cumsum(np.einsum("ij,ij->i", record.U, record.U))  # = sum h ||sigma xi||^2
    mart = np.cumsum(2.0 * np.einsum("ij,ij->i", xs, record.U))  # = M(n)
    x0_sq = float(np.dot(record.X[0], record.X[0]))
    recon = x0_sq - 2.0 * h * drift_work - h * h * drift_sq + shock_sq + mart
    stored = np.einsum("ij,ij->i", record.X[1:], record.X[1:])
    return np.abs(recon - stored) / np.maximum(1.0, np.abs(stored))


# ---------------------------------------------------------------------------
# Path dump format.


def dump_path_csv(record: PathRecord, path) -> None:
    """Write the path as CSV with a comment header block.

    Row n carries X(n); the stage columns hold Xstar(n) for n < N and the
    shock columns hold U(n) (the shock that produced X(n)) for n >= 1;
    absent entries are written as nan.  Thinned records carry every k-th
    row plus the final one.
    """
    if record.X is None:
        raise ValueError("summary-only records have no rows to dump")
    d = record.d
    cols = (
        ["n"]
        + [f"X_{i+1}" for i in range(d)]
        + [f"Xstar_{i+1}" for i in range(d)]
        + [f"U_{i+1}" for i in range(d)]
    )
    full = record.X_star is not None
    with open(path, "w", newline="") as fh:
        fh.write(f"# master_seed: {record.master_seed}\n")
        fh.write(f"# path_index: {record.path_index}\n")
        fh.write(f"# h: {record.h!r}\n")
        fh.write(f"# N: {record.N}\n")
        fh.write(f"# drift: {record.drift_id}\n")
        fh.write(f"# schedule: {record.schedule_id}\n")
        fh.write(f"# record_mode: {record.record_mode}\n")
        fh.write(f"# root_selection: {record.selection_policy}\n")
        fh.write(",".join(cols) + "\n")
        for row_i, n in enumerate(record.stored_steps):
            vals = [str(int(n))]
            vals += [repr(float(v)) for v in record.X[row_i]]
            if full and n < record.N:
                vals += [repr(float(v)) for v in record.X_star[n]]
            else:
                vals += ["nan"] * d
            if full and n >= 1:
                vals += [repr(float(v)) for v in record.U[n - 1]]
            else:
                vals += ["nan"] * d
            fh.write(",".join(vals) + "\n")
