"""Solvers for the implicit relation x* = x - h f(x*).

For scalar dissipative drifts the root is bracketed between 0 and x (the
residual G_x(y) = y - x + h f(y) changes sign across that interval), so a
safeguarded bisection/Newton hybrid is guaranteed to converge; the solver
deterministically selects the root inside that bracket.  Bisection is the
hybrid's fall-through step.  The bracket's side is the sign of G at its
starting lo, fixed at set-up: a residual of that sign moves lo, any other
moves hi.  In higher dimension the solver dispatches on drift structure:
componentwise drifts decompose into scalar problems, rotationally
symmetric drifts reduce to a radius equation on the ray through x, and
general drifts get damped Newton (on the declared Jacobian, else on
finite differences), then the damped fixed point as the one rescue.
Every solver returns an ``ImplicitSolution``.
Every solve accepts a residual of max(tol, four ulps of the state): per
entry for scalar and componentwise solves, on the radius for radial ones
and on max_i |x_i| for the generic route's ||F||.
The componentwise loop updates arrays of its own in place (the iterate,
its residual, the bracket and the Newton candidate); no solver writes into
the state it is given or into an array a drift returns.
The radial reduction is one block stage, ``solve_radial``, shared by both
engines: ``solve_vector`` passes it one state, the integrator's block
stage a block of states.  Radii and scaling are taken once per block,
the radius solves row by row.

Multiple solutions are tolerated; the chosen root is deterministic
(bracket toward the origin for scalars, Newton basin of y0 = x otherwise)
and recorded in path metadata.  Every solution of the relation satisfies
0 < ||x*|| < ||x|| for x != 0 when the drift is dissipative; that
contraction is checked after each solve, and a violation is a SolverError.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-12
MAX_BISECT = 200
MAX_NEWTON = 50
_BELOW_MAX = 1.7976931348623155e308  # the float just below the largest


def _residual_floor(tol, x):
    """The residual a solve accepts: max(tol, four ulps of |x|), which is tol for |x| < 2048.

    G_x(y) = y - x + h f(y) rounds at the scale of |x| (the bracket keeps
    |y| <= |x|), so far from the origin no iterate can meet tol alone.
    """
    if isinstance(x, float):
        # math, not numpy: the scalar solver runs once a step, where numpy's call overhead shows.
        return max(tol, 4.0 * math.ulp(x))
    floor = np.abs(x)
    # spacing(max float) overflows to inf; one ulp below it, spacing is math.ulp(max float).
    np.minimum(floor, _BELOW_MAX, out=floor)
    np.spacing(floor, out=floor)
    floor *= 4.0
    return np.maximum(floor, tol, out=floor)


class SolverError(RuntimeError):
    """Implicit solve did not reach tolerance; carries the best iterate.

    Divergence here is the operational signal that the step size h is too
    large for this drift.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ImplicitSolution(NamedTuple):
    x_star: object  # float from solve_scalar, else an ndarray of the state's shape
    iterations: int
    residual: float


def _scalar_f(drift):
    if drift.scalar_eval is not None:
        return drift.scalar_eval
    return lambda y: float(drift(np.array([y]))[0])


def _check_contract(drift, x_norm: float, y_norm: float) -> None:
    # Non-strict at this level: residual-based termination may stop exactly
    # at y = x when |h f(x)| is already below tolerance.  Strictness over
    # representative domains is asserted by the property tests.
    if drift.dissipative and x_norm > 0.0 and not 0.0 < y_norm <= x_norm:
        raise SolverError(f"contraction violated: ||x*||={y_norm!r} vs ||x||={x_norm!r}")


def solve_scalar(drift, h: float, x: float, tol: float = DEFAULT_TOL) -> ImplicitSolution:
    """Root of y - x + h f(y) in the closed interval between 0 and x.

    x = 0 returns exactly 0.  The sign change over [0, x] is guaranteed for
    dissipative f; its absence is reported as SolverError.  Bisection is
    the loop's fall-through step; a solve without ``scalar_deriv`` starts
    with its ``MAX_NEWTON`` Newton steps spent, so every step bisects.
    f and f' are read as they return, so float maps keep the solve on floats.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = float(x)
    if x == 0.0:
        return ImplicitSolution(0.0, 0, 0.0)
    tol = _residual_floor(tol, x)
    f = _scalar_f(drift)
    df = drift.scalar_deriv
    # The residual G_x(y) = y - x + h f(y) is written out at each use
    # rather than called through a closure on every iterate.
    lo, hi = (x, 0.0) if x < 0 else (0.0, x)
    glo = lo - x + h * f(lo)
    ghi = hi - x + h * f(hi)
    if glo == 0.0:
        return ImplicitSolution(lo, 0, 0.0)
    if ghi == 0.0:
        return ImplicitSolution(hi, 0, 0.0)
    # The bracket's side, by sign: a product of two tiny residuals underflows to zero.
    side = 1.0 if glo > 0.0 else -1.0
    if ghi * side > 0.0:
        raise SolverError(
            "no sign change between 0 and x; drift is not dissipative there",
            best=x,
            residual=abs(glo if x < 0 else ghi),  # G_x at y = x
        )

    y = 0.5 * (lo + hi)
    gy = y - x + h * f(y)
    ag = abs(gy)
    best_y, best_g = y, ag
    newton_used = 0 if df is not None else MAX_NEWTON
    for it in range(1, MAX_BISECT + 1):
        if ag <= tol:
            _check_contract(drift, abs(x), abs(y))
            return ImplicitSolution(y, it, ag)
        if ag < best_g:
            best_y, best_g = y, ag
        # A Newton step is kept if it stays in the bracket and lowers |G|; else the step bisects.
        if newton_used < MAX_NEWTON:
            try:
                slope = 1.0 + h * df(y)
            except OverflowError:  # arctan's 1 / (1 + y**2) past |y| ~ 1e154: bisect
                slope = 0.0
            if slope != 0.0 and lo < (cand := y - gy / slope) < hi:
                newton_used += 1
                g_new = cand - x + h * f(cand)
                if abs(g_new) < ag:
                    if g_new * side < 0.0:
                        hi = cand
                    else:
                        lo = cand
                    y, gy, ag = cand, g_new, abs(g_new)
                    continue
        if gy * side < 0.0:
            hi = y
        else:
            lo = y
        y = 0.5 * (lo + hi)
        gy = y - x + h * f(y)
        ag = abs(gy)
        if lo == hi:
            break
    if ag < best_g:
        best_y, best_g = y, ag
    if best_g <= tol:
        _check_contract(drift, abs(x), abs(best_y))
        return ImplicitSolution(best_y, MAX_BISECT, best_g)
    raise SolverError(
        f"scalar implicit solve stalled at residual {best_g:.3e}",
        best=best_y,
        residual=best_g,
    )


def solve_componentwise(drift, h: float, x: np.ndarray, tol: float = DEFAULT_TOL):
    """Vectorised elementwise solve for componentwise drifts.

    Operates on an array of any shape (each entry is an independent scalar
    problem, with its own residual floor); the solution's residual is the
    largest entry's.  Without a declared ``scalar_deriv`` every step bisects.
    On an (m, d) block a failure is named by ``SolverError.row_index``, the
    row with the largest failing residual.

    The loop updates arrays it owns in place, through masked copies: the
    iterate, its residual and |residual|, the bracket (lo and hi) and the
    Newton candidate.  It only reads what the drift returns, and the
    returned y is a new array, so a caller may write into it.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    f = drift.scalar_eval
    df = drift.scalar_deriv
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    if x.ndim == 0:
        x = x.reshape(1)  # numpy returns scalars from 0-d arithmetic, which out= cannot take
    lo = np.minimum(x, 0.0)
    hi = np.maximum(x, 0.0)
    y = x.copy()
    tol = _residual_floor(tol, x)
    iters = 0
    # A converged entry keeps its y, so its residual recomputes to the same
    # bits and it never reactivates.  The bracket of an entry matters only
    # while it is active, so each iteration's bracket update waits until
    # the next one has found an active entry.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = y - x + h * f(y)
        side = np.sign(lo - x + h * f(lo))  # the bracket's side, as in solve_scalar
        ag, ag_prev, cand = np.abs(g), np.empty_like(x), np.empty_like(x)
        for iters in range(1, MAX_BISECT + 1):
            active = ag > tol
            if not np.count_nonzero(active):
                break
            if iters > 1:
                shrink_hi = active & (g * side < 0.0)
                np.copyto(hi, y, where=shrink_hi)
                np.copyto(lo, y, where=np.greater(active, shrink_hi))  # active & ~shrink_hi
            if df is None:
                np.copyto(y, 0.5 * (lo + hi), where=active)
            else:
                # cand = y - g / (1 + h df(y)), built in place.
                np.multiply(h, df(y), out=cand)
                cand += 1.0
                np.divide(g, cand, out=cand)
                np.subtract(y, cand, out=cand)
                # NaN and infinite candidates fail both comparisons: the bracket is finite.
                good = active & (cand > lo) & (cand < hi)
                np.copyto(y, cand, where=good)
                bad = np.greater(active, good)  # active & ~good
                if np.count_nonzero(bad):
                    mid = 0.5 * (lo + hi)
                    np.copyto(y, mid, where=bad)
            np.subtract(y, x, out=g)
            g += h * f(y)
            ag_prev, ag = ag, np.abs(g, out=ag_prev)  # two buffers: the last |g| stays readable
            if df is not None:
                # Newton candidates that fail to improve fall back to the midpoint.
                worse = good & (ag >= ag_prev)
                if np.count_nonzero(worse):
                    mid = 0.5 * (lo + hi)
                    np.copyto(y, mid, where=worse)
                    np.copyto(g, mid - x + h * f(mid), where=worse)
                    np.abs(g, out=ag)
    max_resid = float(ag.max()) if g.size else 0.0
    # Written so that a NaN residual fails too.
    if not (ag <= tol).all():
        failing = np.where(ag <= tol, 0.0, ag)
        worst = float(failing.max())
        exc = SolverError(
            f"componentwise solve stalled at residual {worst:.3e}",
            best=y.reshape(shape),
            residual=worst,
        )
        if g.ndim == 2:
            exc.row_index = int(np.argmax(failing.max(axis=1)))
        raise exc
    return ImplicitSolution(np.where(x == 0.0, 0.0, y).reshape(shape), iters, max_resid)


_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)  # below it, x.dot(x) may have underflowed


def _row_norms(X: np.ndarray) -> list:
    """sqrt(x.dot(x)) per row, np.linalg.norm's formula (vecdot rounds a row as dot does); a nonzero
    row under ``_TINY_NORM`` is taken again scaled by 2^600, one whose norm overflowed by 2^-600."""
    norms = np.sqrt(np.vecdot(X, X)).tolist()
    if norms and min(norms) < _TINY_NORM:
        for i in np.flatnonzero((np.array(norms) < _TINY_NORM) & X.any(axis=1)).tolist():
            x = X[i] * 2.0**600
            norms[i] = math.sqrt(x.dot(x)) * 2.0**-600
    if norms and max(norms) == math.inf:
        for i in [i for i, rho in enumerate(norms) if rho == math.inf]:
            x = X[i] * 2.0**-600
            norms[i] = math.sqrt(x.dot(x)) * 2.0**600
    return norms


class _Ray:
    """Scalar view of the radius equation t + h g(t) = rho for ``solve_scalar``."""

    __slots__ = ("scalar_eval",)
    d = 1
    dissipative = True
    scalar_deriv = None

    def __init__(self, gain):
        self.scalar_eval = gain


def solve_radial(
    drift, h: float, X: np.ndarray, tol: float = DEFAULT_TOL, scalar_solve=solve_scalar
):
    """Stage of an (m, d) block for a rotationally symmetric drift.

    The radius t of row x's stage solves t + h g(t) = ||x|| (``scalar_solve``
    on the ``_Ray`` view) and the stage is (t / ||x||) x: radii and scaling
    once per block, a radius solve per nonzero row.  ``scalar_solve``
    is ``solve_scalar`` as the caller looks it up, so a wrapper the caller
    installed (timing, counting) sees every radius solve.  A failing row is
    named by ``SolverError.row_index``.  The solution's iterations and
    residual are the largest of any row.
    """
    ray = _Ray(drift.radial_gain)
    radii = _row_norms(X)
    scale = [0.0] * len(radii)
    zero_rows = []
    iters, max_resid = 0, 0.0
    for i, rho in enumerate(radii):
        if rho == 0.0:
            zero_rows.append(i)
            continue
        try:
            sol = scalar_solve(ray, h, rho, tol)
        except SolverError as exc:
            exc.row_index = i
            raise
        scale[i] = sol.x_star / rho
        iters = max(iters, sol.iterations)
        max_resid = max(max_resid, sol.residual)
    Y = X * np.array(scale)[:, None]
    if zero_rows:
        # +0.0 in every entry: x * 0.0 is -0.0 where x is negative or -0.0.
        Y[zero_rows] = 0.0
    for i, (rho, y_norm) in enumerate(zip(radii, _row_norms(Y))):
        try:
            _check_contract(drift, rho, y_norm)
        except SolverError as exc:
            exc.row_index = i
            raise
    return ImplicitSolution(Y, iters, max_resid)


def _fd_jac(drift, y, f0, eps=1e-7):
    d = y.size
    J = np.empty((d, d))
    for j in range(d):
        step = eps * max(1.0, abs(y[j]))
        yp = y.copy()
        yp[j] += step
        J[:, j] = (drift(yp) - f0) / step
    return J


def _newton_vector(drift, h, x, tol, jac):
    d = x.size
    y = x.copy()
    fy = drift(y)
    F = y - x + h * fy
    nF = float(np.linalg.norm(F))
    eye = np.eye(d)
    for it in range(1, MAX_NEWTON + 1):
        if nF <= tol:
            return y, it - 1, nF
        J = eye + h * (jac(y) if jac is not None else _fd_jac(drift, y, fy))
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while t >= 2.0**-30:
            y_try = y - t * step
            f_try = drift(y_try)
            F_try = y_try - x + h * f_try
            n_try = float(np.linalg.norm(F_try))
            if n_try < nF:
                y, fy, F, nF = y_try, f_try, F_try, n_try
                break
            t *= 0.5
        else:
            break
    return y, MAX_NEWTON, nF


def _fixed_point_vector(drift, h, x, tol):
    y = x.copy()
    F = y - x + h * drift(y)
    nF = float(np.linalg.norm(F))
    theta = 1.0
    for it in range(1, 4 * MAX_NEWTON + 1):
        if nF <= tol:
            return y, it - 1, nF
        y_try = (1.0 - theta) * y + theta * (x - h * drift(y))
        F_try = y_try - x + h * drift(y_try)
        n_try = float(np.linalg.norm(F_try))
        if n_try < nF:
            y, F, nF = y_try, F_try, n_try
            theta = min(1.0, 2.0 * theta)
        else:
            theta *= 0.5
            if theta < 2.0**-30:
                break
    return y, 4 * MAX_NEWTON, nF


def solve_vector(drift, h: float, x: np.ndarray, tol: float = DEFAULT_TOL) -> ImplicitSolution:
    """Solve x* = x - h f(x*) for a d-dimensional drift.

    Dispatches on drift structure; the generic route is Newton from
    y0 = x with step halving, on the declared Jacobian or else on finite
    differences, then the damped fixed point where Newton stops short.
    It accepts ||F|| <= max(tol, four ulps of max_i |x_i|), the floor of
    ``_residual_floor``.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (drift.d,):
        raise ValueError(f"state must have shape ({drift.d},)")
    if not x.any():
        return ImplicitSolution(np.zeros_like(x), 0, 0.0)

    if drift.componentwise:
        sol = solve_componentwise(drift, h, x, tol)
    elif drift.radial:
        sol = solve_radial(drift, h, x[None], tol)
        return sol._replace(x_star=sol.x_star[0])
    else:
        # ||F|| rounds at the scale of the largest entry of x.
        tol = _residual_floor(tol, float(np.abs(x).max()))
        y, iters, resid = _newton_vector(drift, h, x, tol, drift.jac)
        if resid > tol:
            y2, it2, r2 = _fixed_point_vector(drift, h, x, tol)
            if r2 < resid:
                y, iters, resid = y2, it2, r2
        if resid > tol:
            raise SolverError(
                f"vector implicit solve stalled at residual {resid:.3e} "
                "(h may be too large for this drift)",
                best=y,
                residual=resid,
            )
        sol = ImplicitSolution(y, iters, resid)
    _check_contract(drift, float(np.linalg.norm(x)), float(np.linalg.norm(sol.x_star)))
    return sol
