"""Spectral and Lyapunov analysis of the affine one-step map.

For dY = A Y dt + noise with every eigenvalue of A in the open left half
plane, the implicit stage of the scheme is the fixed matrix

    C(h) = (I - h A)^{-1},

whose eigenvalues are 1 / (1 - h lambda_A); stability of A forces them all
inside the unit disc.  The discrete Lyapunov equation

    C^T M C - M = -I

then has a unique symmetric positive definite solution, computed here two
independent ways (truncated series sum of (C^T)^k C^k and the vectorised
Kronecker linear system) and cross-checked.  V(x) = x^T M x is the energy
used by the bounded-regime bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def build_C(A, h: float) -> np.ndarray:
    """Dense inverse of (I - hA); raises on a (near-)singular matrix."""
    A = np.asarray(A, dtype=np.float64)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError("A must be square")
    if h <= 0:
        raise ValueError("step size h must be positive")
    I_hA = np.eye(d) - h * A
    cond = np.linalg.cond(I_hA)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError("I - hA is singular or near-singular")
    return np.linalg.solve(I_hA, np.eye(d))


@dataclass(frozen=True)
class EigenMapReport:
    ok: bool
    max_mismatch: float
    spectral_radius: float
    all_inside_unit: bool
    eig_C: tuple
    eig_mapped: tuple


def eigen_map_check(A, h: float, tol: float = 1e-10) -> EigenMapReport:
    """Verify eig(C(h)) equals 1/(1 - h eig(A)) as multisets.

    Pairs are matched by minimum-cost assignment before comparing; when A
    is stable the report also confirms every mapped eigenvalue lies
    strictly inside the unit disc.
    """
    # Imported here, its only use: scipy.optimize is most of a cold start.
    from scipy.optimize import linear_sum_assignment

    A = np.asarray(A, dtype=np.float64)
    C = build_C(A, h)
    eig_A = np.linalg.eigvals(A)
    eig_C = np.linalg.eigvals(C)
    mapped = 1.0 / (1.0 - h * eig_A)
    cost = np.abs(eig_C[:, None] - mapped[None, :])
    rows, cols = linear_sum_assignment(cost)
    max_mismatch = float(cost[rows, cols].max())
    rho = float(np.abs(eig_C).max())
    stable = bool((eig_A.real < 0).all())
    inside = bool((np.abs(mapped) < 1.0).all()) if stable else False
    return EigenMapReport(
        ok=max_mismatch <= tol and (inside or not stable),
        max_mismatch=max_mismatch,
        spectral_radius=rho,
        all_inside_unit=inside,
        eig_C=tuple(eig_C),
        eig_mapped=tuple(mapped),
    )


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    M: np.ndarray
    P: np.ndarray
    residual: float
    method_gap: float  # Frobenius distance between series and Kronecker solutions


def _lyapunov_series(C: np.ndarray, tol: float) -> np.ndarray:
    d = C.shape[0]
    term = np.eye(d)
    M = np.eye(d)
    small = 0
    for _ in range(200_000):
        term = C.T @ term @ C
        M += term
        if np.linalg.norm(term) < tol:
            small += 1
            if small >= 2:
                return M
        else:
            small = 0
    raise RuntimeError("Lyapunov series did not converge (spectral radius too close to 1?)")


def _lyapunov_kron(C: np.ndarray) -> np.ndarray:
    d = C.shape[0]
    K = np.eye(d * d) - np.kron(C.T, C.T)
    vec = np.linalg.solve(K, np.eye(d).reshape(-1))
    return vec.reshape(d, d)


def solve_discrete_lyapunov(C, tol: float = 1e-12, method: str = "both") -> LyapunovSolution:
    """Solve C^T M C - M = -I for symmetric positive definite M.

    ``method`` selects 'series', 'kron', or 'both' (cross-checked, the
    Kronecker solution is returned).  P is the symmetric square root of M,
    so M = P P^T exactly in exact arithmetic.
    """
    C = np.asarray(C, dtype=np.float64)
    d = C.shape[0]
    if C.shape != (d, d):
        raise ValueError("C must be square")
    rho = float(np.abs(np.linalg.eigvals(C)).max())
    if rho >= 1.0:
        raise ValueError(f"spectral radius {rho:.6f} >= 1; no positive definite solution")
    gap = 0.0
    if method == "series":
        M = _lyapunov_series(C, tol)
    elif method == "kron":
        M = _lyapunov_kron(C)
    elif method == "both":
        M_series = _lyapunov_series(C, tol)
        M = _lyapunov_kron(C)
        gap = float(np.linalg.norm(M_series - M))
    else:
        raise ValueError(f"unknown method {method!r}")
    M = 0.5 * (M + M.T)
    eigvals, eigvecs = np.linalg.eigh(M)
    if eigvals.min() <= 0:
        raise RuntimeError("Lyapunov solution is not positive definite")
    P = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    residual = float(np.linalg.norm(C.T @ M @ C - M + np.eye(d)))
    return LyapunovSolution(M=M, P=P, residual=residual, method_gap=gap)


def lyapunov_value(M, x) -> float:
    """V(x) = x^T M x for positive definite M."""
    M = np.asarray(M, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (M.shape[0],):
        raise ValueError("dimension mismatch between M and x")
    return float(x @ M @ x)


@dataclass(frozen=True, eq=False)
class AffineSystem:
    A: np.ndarray
    h: float
    C: np.ndarray
    spectral_radius_C: float
    M: np.ndarray
    P: np.ndarray
    lyapunov_residual: float


def build_affine_system(A, h: float, tol: float = 1e-12) -> AffineSystem:
    A = np.asarray(A, dtype=np.float64)
    C = build_C(A, h)
    sol = solve_discrete_lyapunov(C, tol=tol, method="both")
    return AffineSystem(
        A=A,
        h=h,
        C=C,
        spectral_radius_C=float(np.abs(np.linalg.eigvals(C)).max()),
        M=sol.M,
        P=sol.P,
        lyapunov_residual=sol.residual,
    )


def lyapunov_decrement_residuals(system: AffineSystem, record) -> np.ndarray:
    """Relative residuals of the per-step energy balance along an affine path.

    V(Y(n+1)) - V(Y(n)) + ||Y(n)||^2 - k(n+1) - ||P^T U(n+1)||^2 must vanish,
    with the martingale increment k(n+1) = 2 <M C Y(n), U(n+1)>.
    """
    if record.X_star is None or record.U is None:
        raise ValueError("decrement check needs a full path record")
    Y = record.X
    U = record.U
    M, P, C = system.M, system.P, system.C
    V = np.einsum("ij,jk,ik->i", Y, M, Y)
    k = 2.0 * np.einsum("ij,ij->i", (Y[:-1] @ C.T) @ M.T, U)
    pu = (U @ P).astype(np.float64)
    pu_sq = np.einsum("ij,ij->i", pu, pu)
    norms_sq = np.einsum("ij,ij->i", Y[:-1], Y[:-1])
    resid = V[1:] - V[:-1] + norms_sq - k - pu_sq
    scale = np.maximum(1.0, np.maximum(V[1:], V[:-1]))
    return np.abs(resid) / scale
