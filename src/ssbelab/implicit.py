"""Solvers for the implicit relation x* = x - h f(x*).

For scalar dissipative drifts the root is bracketed between 0 and x (the
residual G_x(y) = y - x + h f(y) changes sign across that interval), so a
safeguarded bisection/Newton hybrid is guaranteed to converge; the solver
deterministically selects the root inside that bracket.  In higher
dimension the solver dispatches on drift structure: componentwise drifts
decompose into scalar problems, rotationally symmetric drifts reduce to a
radius equation on the ray through x, and general drifts get damped Newton
(analytic Jacobian, else damped fixed point, else finite differences).
The radial reduction is one row loop, ``solve_radial``, shared by both
engines: ``solve_vector`` passes it one state, the integrator's block
stage a block of states.

Multiple solutions are tolerated; the chosen root is deterministic
(bracket toward the origin for scalars, Newton basin of y0 = x otherwise)
and recorded in path metadata.  Every solution of the relation satisfies
0 < ||x*|| < ||x|| for x != 0 when the drift is dissipative; with asserts
enabled that contraction is checked after each solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12
MAX_BISECT = 200
MAX_NEWTON = 50


def _residual_floor(tol, x):
    """The residual a solve accepts: max(tol, four ulps of |x|), which is tol for |x| < 2048.

    G_x(y) = y - x + h f(y) rounds at the scale of |x| (the bracket keeps
    |y| <= |x|), so far from the origin no iterate can meet tol alone.
    """
    if isinstance(x, float):
        # math, not numpy: the scalar solver runs once a step, where numpy's call overhead shows.
        return max(tol, 4.0 * math.ulp(x))
    return np.maximum(tol, 4.0 * np.spacing(np.abs(x)))


class SolverError(RuntimeError):
    """Implicit solve did not reach tolerance; carries the best iterate.

    Divergence here is the operational signal that the step size h is too
    large for this drift.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


@dataclass(frozen=True, eq=False)
class ImplicitSolution:
    x_star: object  # float for scalar solves, (d,) ndarray for vector solves
    iterations: int
    residual: float
    method: str


def _scalar_f(drift):
    if drift.scalar_eval is not None:
        return drift.scalar_eval
    return lambda y: float(drift(np.array([y]))[0])


def _check_contract(drift, x_norm: float, y_norm: float) -> None:
    # Non-strict at this level: residual-based termination may stop exactly
    # at y = x when |h f(x)| is already below tolerance.  Strictness over
    # representative domains is asserted by the property tests.
    if drift.dissipative and x_norm > 0.0:
        assert 0.0 < y_norm <= x_norm, (
            f"contraction violated: ||x*||={y_norm!r} vs ||x||={x_norm!r}"
        )


def solve_scalar(drift, h: float, x: float, tol: float = DEFAULT_TOL) -> ImplicitSolution:
    """Root of y - x + h f(y) in the closed interval between 0 and x.

    x = 0 returns exactly 0.  The sign change over [0, x] is guaranteed for
    dissipative f; its absence is reported as SolverError.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = float(x)
    if x == 0.0:
        return ImplicitSolution(0.0, 0, 0.0, "bisection")
    tol = _residual_floor(tol, x)
    f = _scalar_f(drift)
    df = drift.scalar_deriv
    # The residual G_x(y) = y - x + h f(y) is written out at each use
    # rather than called through a closure on every iterate.
    lo, hi = (x, 0.0) if x < 0 else (0.0, x)
    glo = lo - x + h * float(f(lo))
    ghi = hi - x + h * float(f(hi))
    if glo == 0.0:
        return ImplicitSolution(lo, 0, 0.0, "bisection")
    if ghi == 0.0:
        return ImplicitSolution(hi, 0, 0.0, "bisection")
    if glo * ghi > 0.0:
        raise SolverError(
            "no sign change between 0 and x; drift is not dissipative there",
            best=x,
            residual=abs(glo if x < 0 else ghi),  # G_x at y = x
        )

    y = 0.5 * (lo + hi)
    gy = y - x + h * float(f(y))
    ag = abs(gy)
    best_y, best_g = y, ag
    method = "bisection"
    newton_used = 0
    for it in range(1, MAX_BISECT + 1):
        if ag <= tol:
            _check_contract(drift, abs(x), abs(y))
            return ImplicitSolution(y, it, ag, method)
        # Try a Newton step from the current point; keep it only if it
        # stays inside the bracket, otherwise bisect.
        stepped = False
        if df is not None and newton_used < MAX_NEWTON:
            slope = 1.0 + h * float(df(y))
            if slope != 0.0:
                cand = y - gy / slope
                if lo < cand < hi:
                    newton_used += 1
                    y_new, g_new = cand, cand - x + h * float(f(cand))
                    ag_new = abs(g_new)
                    if ag_new < ag:
                        if g_new * glo < 0.0:
                            hi = y_new
                        else:
                            lo, glo = y_new, g_new
                        y, gy, ag = y_new, g_new, ag_new
                        method = "newton"
                        stepped = True
        if not stepped:
            if gy * glo < 0.0:
                hi = y
            else:
                lo, glo = y, gy
            y = 0.5 * (lo + hi)
            gy = y - x + h * float(f(y))
            ag = abs(gy)
            method = "bisection"
        if ag < best_g:
            best_y, best_g = y, ag
        if lo == hi:
            break
    if best_g <= tol:
        _check_contract(drift, abs(x), abs(best_y))
        return ImplicitSolution(best_y, MAX_BISECT, best_g, method)
    raise SolverError(
        f"scalar implicit solve stalled at residual {best_g:.3e}",
        best=best_y,
        residual=best_g,
    )


def solve_componentwise(drift, h: float, x: np.ndarray, tol: float = DEFAULT_TOL):
    """Vectorised elementwise solve for componentwise drifts.

    Operates on an array of any shape (each entry is an independent scalar
    problem, with its own residual floor).  Returns (y, iterations,
    max_residual).  Without a declared ``scalar_deriv`` every step bisects.
    On an (m, d) block a failure is named by ``SolverError.row_index``, the
    row with the largest failing residual.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    f = drift.scalar_eval
    df = drift.scalar_deriv
    x = np.asarray(x, dtype=np.float64)
    lo = np.minimum(x, 0.0)
    hi = np.maximum(x, 0.0)
    y = x.copy()
    g = y - x + h * f(y)
    glo = lo - x + h * f(lo)
    tol = _residual_floor(tol, x)
    iters = 0
    # A converged entry keeps y_new = y, so its residual recomputes to the
    # same bits and it never reactivates: y and g are replaced whole.
    with np.errstate(divide="ignore", invalid="ignore"):
        for iters in range(1, MAX_BISECT + 1):
            active = np.abs(g) > tol
            if not np.count_nonzero(active):
                break
            mid = 0.5 * (lo + hi)
            if df is None:
                y_new = np.where(active, mid, y)
            else:
                cand = y - g / (1.0 + h * df(y))
                # NaN and infinite candidates fail both comparisons: the bracket is finite.
                good = active & (cand > lo) & (cand < hi)
                y_new = np.where(active, np.where(good, cand, mid), y)
            g_new = y_new - x + h * f(y_new)
            if df is not None:
                # Newton candidates that fail to improve fall back to the midpoint.
                worse = good & (np.abs(g_new) >= np.abs(g))
                if np.count_nonzero(worse):
                    y_new = np.where(worse, mid, y_new)
                    g_new = np.where(worse, mid - x + h * f(mid), g_new)
            shrink_hi = active & (g_new * glo < 0.0)
            shrink_lo = active & ~shrink_hi
            hi = np.where(shrink_hi, y_new, hi)
            lo = np.where(shrink_lo, y_new, lo)
            glo = np.where(shrink_lo, g_new, glo)
            y, g = y_new, g_new
    resid = np.abs(g)
    max_resid = float(resid.max()) if g.size else 0.0
    # Written so that a NaN residual fails too.
    if not (resid <= tol).all():
        failing = np.where(resid <= tol, 0.0, resid)
        worst = float(failing.max())
        exc = SolverError(
            f"componentwise solve stalled at residual {worst:.3e}", best=y, residual=worst
        )
        if g.ndim == 2:
            exc.row_index = int(np.argmax(failing.max(axis=1)))
        raise exc
    y = np.where(x == 0.0, 0.0, y)
    return y, iters, max_resid


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
    """Row-by-row stage of an (m, d) block for a rotationally symmetric drift.

    The radius t of row x's stage solves t + h g(t) = ||x|| (``scalar_solve``
    on the ``_Ray`` view) and the stage is (t / ||x||) x.  ``scalar_solve``
    is ``solve_scalar`` as the caller looks it up, so a wrapper the caller
    installed (timing, counting) sees every radius solve.  A failing row is
    named by ``SolverError.row_index``.  Returns (Y, most iterations of any
    row, max_residual).
    """
    ray = _Ray(drift.radial_gain)
    Y = np.empty_like(X)
    iters, max_resid = 0, 0.0
    for i, x in enumerate(X):
        # np.linalg.norm's own formula; a batched einsum rounds differently.
        rho = math.sqrt(x.dot(x))
        if rho == 0.0:
            Y[i] = 0.0
            continue
        try:
            sol = scalar_solve(ray, h, rho, tol)
        except SolverError as exc:
            exc.row_index = i
            raise
        y = Y[i]
        np.multiply(sol.x_star / rho, x, out=y)
        _check_contract(drift, rho, math.sqrt(y.dot(y)))
        iters = max(iters, sol.iterations)
        max_resid = max(max_resid, sol.residual)
    return Y, iters, max_resid


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
    F = y - x + h * drift(y)
    nF = float(np.linalg.norm(F))
    eye = np.eye(d)
    for it in range(1, MAX_NEWTON + 1):
        if nF <= tol:
            return y, it - 1, nF
        J = eye + h * (jac(y) if jac is not None else _fd_jac(drift, y, drift(y)))
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while t >= 2.0**-30:
            y_try = y - t * step
            F_try = y_try - x + h * drift(y_try)
            n_try = float(np.linalg.norm(F_try))
            if n_try < nF:
                y, F, nF = y_try, F_try, n_try
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
    y0 = x with step halving, then damped fixed point, then Newton on a
    finite-difference Jacobian.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (drift.d,):
        raise ValueError(f"state must have shape ({drift.d},)")
    if not x.any():
        return ImplicitSolution(np.zeros_like(x), 0, 0.0, "newton")

    if drift.componentwise:
        y, iters, resid = solve_componentwise(drift, h, x, tol)
        sol = ImplicitSolution(y, iters, resid, "newton")
    elif drift.radial:
        Y, iters, resid = solve_radial(drift, h, x[None], tol)
        return ImplicitSolution(Y[0], iters, resid, "bisection")
    else:
        if drift.jac is not None:
            y, iters, resid = _newton_vector(drift, h, x, tol, drift.jac)
            method = "newton"
        else:
            y, iters, resid = _fixed_point_vector(drift, h, x, tol)
            method = "damped_fixed_point"
        if resid > tol:
            # Rescue with the other route; finite differences are the
            # last resort when no Jacobian is declared.
            if drift.jac is not None:
                y2, it2, r2 = _fixed_point_vector(drift, h, x, tol)
                alt = "damped_fixed_point"
            else:
                y2, it2, r2 = _newton_vector(drift, h, x, tol, None)
                alt = "newton"
            if r2 < resid:
                y, iters, resid, method = y2, it2, r2, alt
        if resid > tol:
            raise SolverError(
                f"vector implicit solve stalled at residual {resid:.3e} "
                "(h may be too large for this drift)",
                best=y,
                residual=resid,
            )
        sol = ImplicitSolution(y, iters, resid, method)
    _check_contract(drift, float(np.linalg.norm(x)), float(np.linalg.norm(sol.x_star)))
    return sol
