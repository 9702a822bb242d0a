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
block of radial states through ``solve_radial``, a radius solve per row;
any other state goes through ``solve_scalar`` (d = 1) or ``solve_vector``.

Both run one step loop, ``_step_loop``, on one path's state or an (m, d)
block.  A lone path's state at d = 1 is a Python float, written into the
(k,) columns of its (k, 1) arrays: its ``+`` and ``*`` are the IEEE
operations numpy performs on a (1,) row, so the bits do not change.  Per
NOISE_BLOCK steps the loop draws the noise; per chunk it assembles the
shocks through ``NoiseSchedule.shocks``, runs the stage for each step into
arrays the engine supplies and folds the chunk through one
``BatchDiagnostics.fold``.  ``integrate`` folds once per NOISE_BLOCK
steps, into a full record's own X, X_star and U slices or else into
scratch rows; the lockstep engine once per CHUNK steps, into
(CHUNK, m, d) scratch.  The shock and the affine stage round a lone row
as each row of a block (``fixed_order_product``), so a path's values
depend on ``(master_seed, path_index)`` alone, not on the block it runs
in.  A failed stage solve, or a shock or state that is not finite, stops
the loop with one error, ``PathError``, naming path, master_seed and step.

``integrate`` generates one path with its full, thinned or summary record.
``integrate_paths_lockstep`` advances a block of paths in parallel arrays
(one substream per path, noise drawn blockwise in each path's own order),
which is what makes desk-scale ensembles cheap.  It draws the noise
``integrate`` draws, path for path, and returns the same summary bit for
bit for affine drifts and for the built-in drifts at d > 1.  A
componentwise, non-affine drift at d = 1 is the exception: ``integrate``
takes ``solve_scalar`` and the block ``solve_componentwise``, which stop
at different iterates, so the summaries differ in their low digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ssbelab.affine import build_C
from ssbelab.diagnostics import BatchDiagnostics, NonFiniteError, PathSummary
from ssbelab.diagnostics import summarize  # noqa: F401  (perfbench's tracer wraps it here)
from ssbelab.floattext import csv_lines
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
# Steps the lockstep engine assembles shocks for and folds at a time.
CHUNK = 64
# Rows of path.csv formatted at a time.
CSV_ROWS = 1024

ROOT_SELECTION_POLICY = "bracket root toward the origin (scalar); Newton basin of y0=x (vector)"


@dataclass(eq=False)
class PathRecord:
    h: float
    N: int
    d: int
    drift_id: str
    schedule_id: str
    master_seed: int
    path_index: int
    record_mode: str
    X: Optional[np.ndarray]  # (K, d) stored states
    X_star: Optional[np.ndarray]  # (K-1, d) implicit stages (full mode only)
    U: Optional[np.ndarray]  # (K-1, d); row n holds U(n+1)
    stored_steps: Optional[np.ndarray]  # indices of stored rows of X
    summary: PathSummary


def _parse_record_mode(record_mode: str) -> tuple[str, int]:
    """("full", 1), ("summary", 0), or ("thin", k) for "thin:k" with an integer k >= 1."""
    if record_mode in ("full", "summary"):
        return record_mode, int(record_mode == "full")
    kind, _, k = record_mode.partition(":")
    if kind == "thin" and k.strip().isdecimal() and int(k) >= 1:
        return "thin", int(k)
    raise ValueError(f"record mode must be full, summary or thin:k, k >= 1, got {record_mode!r}")


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


def _lone_rows(a: np.ndarray, floats: bool = False):
    """A lone path's rows of a (k, d) array: at d = 1 its (k,) column, as Python floats if ``floats``."""
    return a if a.shape[1] > 1 else a[:, 0].tolist() if floats else a[:, 0]


def _solve_rows(stage, X):
    out = np.empty_like(X)
    for i, x in enumerate(_lone_rows(X, floats=True)):
        try:
            out[i] = stage(x)
        except SolverError as exc:
            exc.row_index = i
            raise
    return out


def stage_rule(drift, h: float, tol: float, block: bool):
    """The implicit stage x -> x*, x* = x - h f(x*), chosen from the drift's structure.

    Returns a map from one state, or an (m, d) block when ``block`` is set,
    to a new float or array.  An affine drift applies C(h) = (I - hA)^{-1}
    through ``fixed_order_product``, so a lone state and each row of a
    block round alike; at d = 1 that is the one IEEE product x c(h), taken
    by ``*`` on a lone float or an (m, 1) block.  A lone state at d = 1 is
    otherwise mapped by ``solve_scalar``, a lone (d,) state by
    ``solve_vector``; a block of componentwise states is solved whole by
    ``solve_componentwise``, a block of radial states (d > 1) by
    ``solve_radial``, a radius per row, any other block row by row by the
    lone stage.  A failing row of a block is named by ``SolverError.row_index``.
    A step past the drift's ``h_max`` is a ValueError: there the stage may
    have several roots, and a solver would pick one by its search order.
    """
    if h > drift.h_max:
        raise ValueError(f"step h = {h!r} exceeds the {drift.name} drift's bound h_max = {drift.h_max!r}")
    if drift.affine:
        C_T = build_C(drift.affine_matrix, h).T
        if drift.d == 1:
            c = float(C_T[0, 0])
            return lambda x: x * c
        return lambda x: fixed_order_product(x, C_T)
    if drift.d == 1 and not block:
        # solve_scalar is looked up here at each call, so a wrapper installed on it sees every solve.
        return lambda x: solve_scalar(drift, h, x, tol).x_star
    if not block:
        return lambda x: np.asarray(solve_vector(drift, h, x, tol).x_star, dtype=np.float64)
    if drift.componentwise:
        return lambda X: solve_componentwise(drift, h, X, tol).x_star
    if drift.radial and drift.d > 1:
        # Each row's radius solve goes through this module's solve_scalar.
        return lambda X: solve_radial(drift, h, X, tol, solve_scalar).x_star
    lone = stage_rule(drift, h, tol, block=False)
    return lambda X: _solve_rows(lone, X)


class PathError(RuntimeError):
    """A path failed; the message names the path, its master_seed and the step.

    The cause, a SolverError or NonFiniteError, is chained.  Both engines
    attach the ``partial_summaries`` of the steps completed; ``integrate``
    also their ``partial_summary`` and the ``partial_states`` of its record.
    """

    def __init__(self, cause, path_index: int, master_seed: int, step_index: int):
        super().__init__(
            f"path {path_index} (master_seed {master_seed}) failed at step {step_index}: {cause}"
        )
        self.path_index = path_index
        self.master_seed = master_seed
        self.step_index = step_index


def _step_loop(schedule, x, steps, window, ids, master_seed, stage, draw, chunk,
               rows=None, keep=None, view=None):
    """Advance ``x`` by ``steps`` steps; return the summaries of the paths ``ids``.

    The one step loop of both engines.  ``x`` is one path's state (a float
    at d = 1, else (d,)) or a block's (m, d) states, and ``stage`` maps it
    to its implicit stage.  Per NOISE_BLOCK steps ``draw(k)`` returns k
    steps of noise, (k, r) or (k, m, r).  Per ``chunk`` of those steps the
    shocks u are assembled and read step by step through ``view(u)`` (u
    by default; floats at d = 1, whose ``+`` is numpy's IEEE addition), each
    step's state and stage are written into the arrays ``rows(n0, u)``
    returns for the chunk starting at step n0 (by default one chunk of
    scratch rows of the state's shape, (chunk,) for a float), and the chunk is folded;
    ``keep(x_rows, n0, n)`` then reads the states of the steps folded,
    n0+1 .. n.  A failed stage or a non-finite state raises PathError with
    the ``partial_summaries``.
    """
    m, d = len(ids), schedule.d
    window = default_window(steps) if window is None else int(window)
    diag = BatchDiagnostics(m, d, schedule.h, window)
    if rows is None:
        # One chunk of states and stages, folded and then overwritten.
        scratch = np.empty((2, min(chunk, steps)) + np.shape(x))
        rows = lambda n0, u: (scratch[0, : len(u)], scratch[1, : len(u)])
    step, part = 0, ()
    # Overflow is not warned about: the fold's check names the step.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            diag.start(np.reshape(x, (m, d)))
            while step < steps:
                noise = draw(min(NOISE_BLOCK, steps - step))
                for c in range(0, len(noise), chunk):
                    u, fro = schedule.shocks(noise[c : c + chunk], step)
                    n0, (x_rows, xs_rows) = step, rows(step, u)
                    part = (x_rows, xs_rows, u, fro)
                    for j, u_j in enumerate(u if view is None else view(u)):
                        xs_rows[j] = x = stage(x)
                        x += u_j  # in place on a block: every stage returns a new array
                        x_rows[j] = x
                        step += 1
                    diag.fold(*part)
                    if keep:
                        keep(x_rows, n0, step)
            return diag.summaries(ids, diag.last_norms)
        except (SolverError, NonFiniteError) as exc:
            cause, at = diag.first_failure(exc, step, *part)
            if keep and part:
                keep(x_rows, n0, at)
            # A lone state's solve names no row: it is row 0.
            err = PathError(cause, ids[getattr(cause, "row_index", 0)], master_seed, at)
            err.partial_summaries = diag.summaries(ids, diag.last_norms)
            raise err from cause


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
    mode, stride = _parse_record_mode(record_mode)
    X = X_star = U = stored = rows = keep = None
    if mode == "full":
        X, X_star, U = np.empty((steps + 1, d)), np.empty((steps, d)), np.empty((steps, d))
        stored = np.arange(steps + 1)

        def rows(n0, u):
            U[n0 : n0 + len(u)] = u
            return _lone_rows(X[n0 + 1 : n0 + len(u) + 1]), _lone_rows(X_star[n0 : n0 + len(u)])

    elif mode == "thin":
        stored = np.append(np.arange(0, steps, stride), steps)
        X = np.empty((len(stored), d))

        def keep(x_rows, n0, n):
            lo, hi = np.searchsorted(stored, (n0 + 1, n + 1))
            _lone_rows(X)[lo:hi] = x_rows[stored[lo:hi] - n0 - 1]

    if X is not None:
        X[0] = zeta
    stage = stage_rule(drift, schedule.h, tol, block=False)
    try:
        (summary,) = _step_loop(schedule, _lone_rows(zeta[None], floats=True)[0], steps, window,
                                [stream.path_index], stream.master_seed, stage, stream.draw_block,
                                NOISE_BLOCK, rows=rows, keep=keep, view=lambda u: _lone_rows(u, floats=True))
    except PathError as err:
        (err.partial_summary,) = err.partial_summaries
        err.partial_states = None if X is None else X[stored <= err.step_index]
        raise
    return PathRecord(
        h=schedule.h,
        N=steps,
        d=d,
        drift_id=drift.name,
        schedule_id=schedule.kind,
        master_seed=stream.master_seed,
        path_index=stream.path_index,
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
    ``NoiseSchedule.shocks``, assembled one CHUNK of steps at a time.
    The stage is ``stage_rule`` on the whole (m, d) block.  A failing path
    stops the run with a PathError naming it.
    """
    zeta = _check_inputs(drift, schedule, zeta, steps, r)
    path_indices = list(path_indices)
    if not path_indices:
        return []
    streams = [derive_substream(master_seed, p, r) for p in path_indices]
    stage = stage_rule(drift, schedule.h, tol, block=True)

    def draw(k):
        """(k, m, r): each path's next k vectors from its own stream, in one block."""
        block = np.empty((k, len(streams), r))
        for i, s in enumerate(streams):
            s.draw_block(k, out=block[:, i])
        return block

    return _step_loop(schedule, np.tile(zeta, (len(streams), 1)), steps, window, path_indices,
                      master_seed, stage, draw, CHUNK)


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
    row plus the final one.  Values are written as ``repr`` of the float,
    CSV_ROWS rows at a time through ``floattext.csv_lines``.
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
        fh.write(f"# root_selection: {ROOT_SELECTION_POLICY}\n")
        fh.write(",".join(cols) + "\n")
        for lo in range(0, len(record.stored_steps), CSV_ROWS):
            ns = record.stored_steps[lo : lo + CSV_ROWS]
            if full:
                stage = record.X_star[np.minimum(ns, record.N - 1)]
                shock = record.U[np.maximum(ns - 1, 0)]
                stage[ns == record.N] = np.nan
                shock[ns == 0] = np.nan
            else:
                stage = shock = np.full((len(ns), d), np.nan)
            # repr(nan) is "nan", the text of an absent entry.
            vals = np.concatenate([record.X[lo : lo + CSV_ROWS], stage, shock], axis=1)
            fh.write(csv_lines(ns, vals).decode("ascii"))
