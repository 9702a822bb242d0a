import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov as scipy_dlyap

from ssbelab.affine import (
    build_affine_system,
    build_C,
    eigen_map_check,
    lyapunov_decrement_residuals,
    lyapunov_value,
    solve_discrete_lyapunov,
)
from ssbelab.drifts import builtin_drift
from ssbelab.gaussian import derive_substream
from ssbelab.integrator import integrate
from ssbelab.schedules import schedule_family


def _random_stable_A(rng, d):
    A = rng.standard_normal((d, d))
    A -= (np.abs(np.linalg.eigvals(A)).max() + 0.5) * np.eye(d)
    assert (np.linalg.eigvals(A).real < 0).all()
    return A


def _random_contraction(rng, d, rho_max=0.95):
    C = rng.standard_normal((d, d))
    rho = np.abs(np.linalg.eigvals(C)).max()
    return C * (rng.uniform(0.1, rho_max) / rho)


def test_build_C_scalar():
    assert build_C(np.array([[-1.0]]), 0.1)[0, 0] == pytest.approx(1.0 / 1.1, rel=1e-15)


def test_build_C_diagonal():
    C = build_C(-np.eye(3), 1.0)
    assert np.allclose(C, 0.5 * np.eye(3), atol=1e-15)


def test_build_C_residual():
    A = np.array([[0.0, 2.0], [-2.0, -2.0]])
    h = 0.5
    C = build_C(A, h)
    assert np.abs(C @ (np.eye(2) - h * A) - np.eye(2)).max() < 1e-13


def test_build_C_rejects_singular():
    # I - hA singular at h = 1 for A with eigenvalue exactly 1.
    with pytest.raises(ValueError):
        build_C(np.array([[1.0]]), 1.0)
    with pytest.raises(ValueError):
        build_C(np.eye(2), 0.0)


def test_eigen_map_scalar():
    rep = eigen_map_check(np.array([[-1.0]]), 0.1)
    assert rep.ok and rep.spectral_radius == pytest.approx(1.0 / 1.1)


def test_eigen_map_complex_pair():
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])  # eigenvalues -1 +- 2i
    rep = eigen_map_check(A, 0.2)
    assert rep.ok
    assert rep.spectral_radius == pytest.approx(0.79056941504209485, rel=1e-12)


def test_eigen_map_diagonal():
    rep = eigen_map_check(np.diag([-1.0, -2.0, -3.0]), 1.0)
    got = sorted(abs(v) for v in rep.eig_C)
    assert got == pytest.approx([0.25, 1.0 / 3.0, 0.5])


def test_eigen_map_random_batch():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        A = _random_stable_A(rng, d)
        rep = eigen_map_check(A, float(10 ** rng.uniform(-2, 0.5)))
        assert rep.max_mismatch <= 1e-10
        assert rep.spectral_radius < 1.0 and rep.all_inside_unit


def test_lyapunov_scalar_geometric_series():
    sol = solve_discrete_lyapunov(np.array([[0.5]]))
    assert sol.M[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lyapunov_zero_map():
    sol = solve_discrete_lyapunov(np.zeros((3, 3)))
    assert np.allclose(sol.M, np.eye(3))
    assert np.allclose(sol.P, np.eye(3))


def test_lyapunov_upper_triangular_case():
    C = np.array([[0.5, 0.1], [0.0, 0.5]])
    sol = solve_discrete_lyapunov(C)
    assert sol.residual < 1e-12
    assert sol.method_gap < 1e-10
    oracle = scipy_dlyap(C.T, np.eye(2))
    assert np.abs(sol.M - oracle).max() < 1e-10


def test_lyapunov_rejects_expanding_map():
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(np.array([[1.0]]))
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(1.2 * np.eye(2))


def test_lyapunov_factor_reconstructs_M():
    rng = np.random.default_rng(2)
    for _ in range(10):
        C = _random_contraction(rng, int(rng.integers(1, 6)))
        sol = solve_discrete_lyapunov(C)
        assert np.abs(sol.P @ sol.P.T - sol.M).max() < 1e-12
        assert (np.linalg.eigvalsh(sol.M) > 0).all()


def test_lyapunov_value_basics():
    assert lyapunov_value(np.array([[4.0 / 3.0]]), np.array([3.0])) == pytest.approx(12.0)
    assert lyapunov_value(np.eye(2), np.zeros(2)) == 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    assert lyapunov_value(np.eye(4), x) == pytest.approx(float(x @ x))
    with pytest.raises(ValueError):
        lyapunov_value(np.eye(2), np.ones(3))


def test_affine_system_invariants():
    rng = np.random.default_rng(8)
    A = _random_stable_A(rng, 3)
    system = build_affine_system(A, 0.4)
    assert system.spectral_radius_C < 1.0
    assert system.lyapunov_residual <= 1e-10
    assert np.abs(system.M - system.M.T).max() <= 1e-12


def test_decrement_identity_along_path():
    A = np.array([[-1.0, 2.0], [-2.0, -3.0]])
    system = build_affine_system(A, 0.2)
    sched = schedule_family("inverse_log", h=0.2, a=2.0, b=2.0, d=2, r=2)
    rec = integrate(builtin_drift("linear", A=A), sched, [1.0, -1.0], 1000, derive_substream(3, 0, 2))
    resid = lyapunov_decrement_residuals(system, rec)
    assert float(resid.max()) <= 1e-8


def test_decrement_identity_zero_noise():
    A = np.array([[-0.5]])
    system = build_affine_system(A, 1.0)
    sched = schedule_family("zero", h=1.0)
    rec = integrate(builtin_drift("linear", A=A), sched, [2.0], 50, derive_substream(0, 0, 1))
    assert float(lyapunov_decrement_residuals(system, rec).max()) <= 1e-12


def test_lyapunov_series_that_does_not_settle_is_a_value_error():
    # Doubling sums 2^64 terms at most; a NaN step never meets the stop.
    from ssbelab.affine import _lyapunov_series

    with pytest.raises(ValueError, match="Lyapunov series did not converge"):
        _lyapunov_series(np.array([[np.nan]]), 1e-12)


def test_lyapunov_series_sums_by_doubling():
    # After j doublings M holds the first 2^j terms of sum_k (C^T)^k C^k.
    from ssbelab.affine import _lyapunov_series

    for c in (0.5, 0.9, 1.0 - 1e-6):
        M = _lyapunov_series(np.array([[c]]), 1e-12)
        assert M[0, 0] == pytest.approx(1.0 / (1.0 - c * c), rel=1e-9)
