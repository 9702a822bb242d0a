import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.implicit import (
    MAX_BISECT,
    SolverError,
    solve_componentwise,
    solve_scalar,
    solve_vector,
)

CUBIC_ROOT = 0.68232780382801932737  # y + y^3 = 1
BUILTIN_CUBIC_ROOT = 0.45339765151640376764  # 2y + y^3 = 1, i.e. f = y + y^3 at h = 1

ALL_SCALAR_DRIFTS = [
    builtin_drift("linear", lam=1.0),
    builtin_drift("cubic"),
    builtin_drift("saturating", c=1.0),
    builtin_drift("arctan"),
]


def test_linear_closed_form():
    sol = solve_scalar(builtin_drift("linear", lam=1.0), 0.5, 3.0)
    assert sol.x_star == pytest.approx(3.0 / 1.5, abs=1e-12)


def test_pure_cubic_against_bisection_oracle():
    pure = make_drift(lambda x: np.asarray(x, float) ** 3, 1, name="pure_cubic",
                      scalar_eval=lambda y: y**3, scalar_deriv=lambda y: 3.0 * y**2)
    sol = solve_scalar(pure, 1.0, 1.0, tol=1e-13)
    assert sol.x_star == pytest.approx(CUBIC_ROOT, abs=1e-10)


def test_builtin_cubic_root():
    sol = solve_scalar(builtin_drift("cubic"), 1.0, 1.0, tol=1e-13)
    assert sol.x_star == pytest.approx(BUILTIN_CUBIC_ROOT, abs=1e-10)


def test_zero_is_exact():
    sol = solve_scalar(builtin_drift("cubic"), 1.0, 0.0)
    assert sol.x_star == 0.0 and sol.iterations == 0
    vec = solve_vector(builtin_drift("cubic", d=3), 1.0, np.zeros(3))
    assert (np.asarray(vec.x_star) == 0.0).all() and vec.iterations == 0


def test_non_dissipative_detected():
    anti = make_drift(lambda x: -np.asarray(x, float), 1, name="anti",
                      scalar_eval=lambda y: -y)
    with pytest.raises(SolverError):
        solve_scalar(anti, 2.0, 1.0)


def test_vector_affine_matches_linear_solve_oracle():
    rng = np.random.default_rng(0)
    A = np.array([[-1.0, 0.7, 0.0], [0.0, -2.0, 0.3], [0.1, 0.0, -1.5]])
    drift = builtin_drift("linear", A=A)
    for _ in range(20):
        x = rng.standard_normal(3) * 10.0
        h = float(10 ** rng.uniform(-3, 1))
        sol = solve_vector(drift, h, x)
        oracle = np.linalg.solve(np.eye(3) - h * A, x)
        assert np.abs(np.asarray(sol.x_star) - oracle).max() < 1e-12 * max(1, np.abs(oracle).max())


def test_componentwise_matches_scalar_per_coordinate():
    cubic3 = builtin_drift("cubic", d=3)
    sol = solve_vector(cubic3, 1.0, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(sol.x_star, BUILTIN_CUBIC_ROOT, atol=1e-10)
    mixed = np.array([0.5, -2.0, 7.0])
    sol2 = solve_vector(cubic3, 0.3, mixed)
    scalar = builtin_drift("cubic")
    for i in range(3):
        si = solve_scalar(scalar, 0.3, float(mixed[i]))
        assert abs(np.asarray(sol2.x_star)[i] - si.x_star) <= 10 * 1e-12


def test_scalar_vector_consistency_d1():
    for drift in ALL_SCALAR_DRIFTS:
        for x in (-3.0, 0.25, 11.0):
            a = solve_scalar(drift, 0.7, x)
            b = solve_vector(drift, 0.7, np.array([x]))
            assert abs(a.x_star - float(np.asarray(b.x_star)[0])) <= 10 * 1e-12


def test_radial_solution_is_collinear():
    sat = builtin_drift("saturating", c=2.0, d=3)
    x = np.array([3.0, -4.0, 12.0])
    sol = solve_vector(sat, 5.0, x)
    y = np.asarray(sol.x_star)
    cross = np.linalg.norm(np.cross(y, x))
    assert cross < 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
    assert 0 < np.linalg.norm(y) < np.linalg.norm(x)


def test_general_newton_without_structure():
    # Plain eval-only drift (no jacobian, not componentwise) exercises the
    # damped fixed-point route with the finite-difference rescue.
    gen = make_drift(
        lambda x: np.tanh(np.asarray(x, float)) + 0.1 * np.asarray(x, float),
        2,
        name="tanhy",
    )
    x = np.array([2.0, -1.0])
    sol = solve_vector(gen, 0.5, x)
    resid = np.linalg.norm(np.asarray(sol.x_star) - x + 0.5 * gen(np.asarray(sol.x_star)))
    assert resid <= 1e-12
    assert np.linalg.norm(sol.x_star) < np.linalg.norm(x)


def _wiggle_drift():
    # Dissipative (y f(y) = y^2 (1 + 0.9 cos y) > 0) but with an oscillating
    # derivative, so the implicit residual is non-monotone at large h and
    # the bracket safeguard carries the solve.
    return make_drift(
        lambda x: np.asarray(x, float) * (1 + 0.9 * np.cos(np.asarray(x, float))),
        1,
        name="wiggle",
        scalar_eval=lambda y: y * (1 + 0.9 * np.cos(y)),
        scalar_deriv=lambda y: 1 + 0.9 * np.cos(y) - 0.9 * y * np.sin(y),
    )


def test_non_monotone_dissipative_drift():
    wig = _wiggle_drift()
    rng = np.random.default_rng(0)
    for _ in range(400):
        h = float(10.0 ** rng.uniform(-3, 1))
        x = float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 3))
        sol = solve_scalar(wig, h, x, tol=1e-9)
        assert sol.residual <= 1e-9
        assert 0.0 < abs(sol.x_star) < abs(x)
    xs = rng.uniform(-900.0, 900.0, size=256)
    y, _, resid = solve_componentwise(wig, 7.3, xs, tol=1e-9)
    assert resid <= 1e-9 and (np.abs(y) < np.abs(xs)).all()


def test_unattainable_tolerance_reported_honestly():
    # At large h the root sits where |G'| * ulp(y) exceeds 1e-12, so the
    # default tolerance cannot be met in doubles; the solver must say so
    # (with its best iterate) rather than return a fake success.
    wig = _wiggle_drift()
    failures = 0
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = float(rng.uniform(100.0, 1000.0))
        try:
            sol = solve_scalar(wig, 10.0, x, tol=1e-12)
            assert sol.residual <= 1e-12
        except SolverError as exc:
            assert exc.residual is not None and exc.residual < 1e-6
            failures += 1
    assert failures > 0


def test_h_validation():
    with pytest.raises(ValueError):
        solve_scalar(builtin_drift("cubic"), 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_vector(builtin_drift("cubic", d=2), -1.0, np.ones(2))


def test_componentwise_batch_shapes():
    cubic = builtin_drift("cubic")
    x = np.linspace(-5, 5, 24).reshape(4, 6)
    y, iters, resid = solve_componentwise(cubic, 0.5, x, 1e-12)
    assert y.shape == x.shape
    assert resid <= 1e-12
    g = y - x + 0.5 * (y + y**3)
    assert np.abs(g).max() <= 1e-12
    assert (np.abs(y) <= np.abs(x)).all()
    assert (y[x == 0.0] == 0.0).all()


def _componentwise_loop_reference(drift, h, x, tol=1e-12):
    """The componentwise loop with per-iteration selects on y and g, kept as an oracle."""
    f, df = drift.scalar_eval, drift.scalar_deriv
    x = np.asarray(x, dtype=np.float64)
    lo, hi = np.minimum(x, 0.0), np.maximum(x, 0.0)
    y = x.copy()
    g = y - x + h * f(y)
    glo = lo - x + h * f(lo)
    iters = 0
    for iters in range(1, MAX_BISECT + 1):
        active = np.abs(g) > tol
        if not active.any():
            break
        slope = 1.0 + h * df(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = y - g / slope
        good = active & (cand > lo) & (cand < hi) & np.isfinite(cand)
        mid = 0.5 * (lo + hi)
        y_new = np.where(active, np.where(good, cand, mid), y)
        g_new = y_new - x + h * f(y_new)
        worse = good & (np.abs(g_new) >= np.abs(g))
        if worse.any():
            y_new = np.where(worse, mid, y_new)
            g_new = np.where(worse, mid - x + h * f(mid), g_new)
        shrink_hi = active & (g_new * glo < 0.0)
        shrink_lo = active & ~shrink_hi
        hi = np.where(shrink_hi, y_new, hi)
        lo = np.where(shrink_lo, y_new, lo)
        glo = np.where(shrink_lo, g_new, glo)
        y = np.where(active, y_new, y)
        g = np.where(active, g_new, g)
    return np.where(x == 0.0, 0.0, y), iters, float(np.abs(g).max())


@pytest.mark.parametrize("name", ["cubic", "arctan", "linear"])
@pytest.mark.parametrize("h", [0.01, 0.1, 1.0])
def test_componentwise_matches_reference_loop_bitwise(name, h):
    drift = builtin_drift(name, lam=1.0) if name == "linear" else builtin_drift(name)
    rng = np.random.default_rng(17)
    for _ in range(40):
        x = rng.standard_normal(200) * 10.0 ** rng.uniform(-6.0, 2.0)
        x[rng.integers(0, 200, 3)] = 0.0
        y, iters, resid = solve_componentwise(drift, h, x)
        y_ref, iters_ref, resid_ref = _componentwise_loop_reference(drift, h, x)
        assert np.array_equal(y, y_ref) and iters == iters_ref and resid == resid_ref


def test_componentwise_without_derivative_bisects():
    plain = make_drift(np.arctan, 1, name="arctan_no_deriv", scalar_eval=np.arctan)
    x = np.array([-3.0, 0.0, 0.5, 40.0])
    y, iters, resid = solve_componentwise(plain, 0.5, x)
    assert resid <= 1e-12 and iters > 1
    assert np.abs(y - x + 0.5 * np.arctan(y)).max() <= 1e-12
    assert y[1] == 0.0


def test_componentwise_nan_residual_is_a_failure():
    holed = make_drift(lambda x: x, 1, name="holed",
                       scalar_eval=lambda y: np.where(np.abs(y) > 0.5, np.nan, y),
                       scalar_deriv=np.ones_like)
    with pytest.raises(SolverError, match="nan"):
        solve_componentwise(holed, 0.1, np.array([1.0, 0.1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    drift_i=st.integers(0, len(ALL_SCALAR_DRIFTS) - 1),
    log_h=st.floats(-3.0, 1.0),
    x=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-12),
)
def test_contraction_property_scalar(drift_i, log_h, x):
    drift = ALL_SCALAR_DRIFTS[drift_i]
    sol = solve_scalar(drift, 10.0**log_h, x)
    assert sol.residual <= 1e-12
    assert 0.0 < abs(sol.x_star) < abs(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    drift_i=st.integers(0, len(ALL_SCALAR_DRIFTS) - 1),
    log_h=st.floats(-3.0, 1.0),
    log_x=st.floats(-3.0, 12.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_residual_floor_property(drift_i, log_h, log_x, sign):
    # Far from the origin one ulp of x exceeds tol = 1e-12 and no iterate
    # can meet it: the solvers accept four ulps of |x| there, and tol
    # itself for |x| < 2048.
    drift = ALL_SCALAR_DRIFTS[drift_i]
    h, x = 10.0**log_h, sign * 10.0**log_x
    floor = max(1e-12, 4.0 * float(np.spacing(abs(x))))
    sol = solve_scalar(drift, h, x)
    assert sol.residual <= floor
    assert 0.0 < abs(sol.x_star) <= abs(x)
    if drift.componentwise:
        y, _, resid = solve_componentwise(drift, h, np.array([[x, -x]]))
        assert resid <= floor and (np.abs(y) <= abs(x)).all()
    if abs(x) < 2048.0:
        assert floor == 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log_h=st.floats(-3.0, 1.0),
    data=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
)
def test_contraction_property_vector(log_h, data):
    x = np.asarray(data)
    if np.linalg.norm(x) < 1e-9:
        return
    for drift in (builtin_drift("cubic", d=3), builtin_drift("saturating", d=3)):
        sol = solve_vector(drift, 10.0**log_h, x)
        assert sol.residual <= 1e-12
        assert 0.0 < np.linalg.norm(sol.x_star) < np.linalg.norm(x)


def _radial_row_reference(gain, h, x, tol=1e-12):
    """One row of the radial route as ``solve_vector`` ran it before the
    shared row loop (norms by ``np.linalg.norm``, the residual through a
    closure), kept as an oracle.  The ray declares no derivative, so the
    scalar solve is its bisection branch.  Returns (y, iterations, residual).
    """
    x = np.asarray(x, dtype=np.float64)
    if not x.any():
        return np.zeros_like(x), 0, 0.0
    rho = float(np.linalg.norm(x))
    if rho == 0.0:
        return np.zeros_like(x), 0, 0.0

    def g(t):
        return t - rho + h * float(gain(t))

    lo, hi = 0.0, rho
    glo, ghi = g(lo), g(hi)
    assert glo != 0.0 and glo * ghi <= 0.0
    if ghi == 0.0:
        t, it, resid = hi, 0, 0.0
    else:
        t = 0.5 * (lo + hi)
        gt = g(t)
        best_t, best_g = t, abs(gt)
        for it in range(1, MAX_BISECT + 1):
            if abs(gt) <= tol:
                best_t, best_g = t, abs(gt)
                break
            if gt * glo < 0.0:
                hi = t
            else:
                lo, glo = t, gt
            t = 0.5 * (lo + hi)
            gt = g(t)
            if abs(gt) < best_g:
                best_t, best_g = t, abs(gt)
            if lo == hi:
                it = MAX_BISECT
                break
        assert best_g <= tol
        t, resid = best_t, best_g
    y = (t / rho) * x
    assert 0.0 < float(np.linalg.norm(y)) <= float(np.linalg.norm(x))
    return y, it, resid


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("c", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("m", [1, 4, 16])
def test_radial_rows_match_per_row_reference_bitwise(seed, c, m):
    from ssbelab.integrator import stage_rule

    drift = builtin_drift("saturating", c=c, d=3)
    rng = np.random.default_rng(seed)
    for h in (0.05, 0.5, 5.0):
        stage = stage_rule(drift, h, 1e-12, block=True)
        for k in range(12):
            X = rng.standard_normal((m, 3)) * 10.0 ** rng.uniform(-4.0, 2.0, (m, 1))
            if m > 1:
                X[k % m] = 0.0 if k % 2 else -0.0
            ref = [_radial_row_reference(drift.radial_gain, h, x) for x in X]
            Y = stage(X)
            assert Y.tobytes() == np.array([y for y, _, _ in ref]).tobytes()
            for x, (y, it, resid) in zip(X, ref):
                sol = solve_vector(drift, h, x)
                assert np.asarray(sol.x_star).tobytes() == y.tobytes()
                assert sol.iterations == it and sol.residual == resid


def test_radial_integrate_path_matches_per_row_reference_bitwise():
    from ssbelab.gaussian import derive_substream
    from ssbelab.integrator import integrate
    from ssbelab.schedules import schedule_family

    drift = builtin_drift("saturating", c=2.0, d=3)
    sched = schedule_family("power", h=0.1, c=1.0, p=0.5, d=3, r=3)
    rec = integrate(drift, sched, [1.0, -2.0, 0.5], 600, derive_substream(42, 3, 3), "full")
    for x, x_star in zip(rec.X[:-1], rec.X_star):
        y, _, _ = _radial_row_reference(drift.radial_gain, 0.1, x)
        assert x_star.tobytes() == y.tobytes()


def test_radial_rows_name_the_failing_row():
    from ssbelab.drifts import DriftSpec
    from ssbelab.integrator import stage_rule

    # Gain t (1 - t^2 / 4) turns outward beyond radius 2: no root in [0, rho].
    bounded = DriftSpec(
        name="bounded_gain", d=3, dissipative=False, radial=True,
        eval=lambda x: x * (1.0 - np.sum(x * x, axis=-1, keepdims=True) / 4.0),
        radial_gain=lambda t: t * (1.0 - t * t / 4.0),
    )
    X = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SolverError, match="no sign change") as excinfo:
        stage_rule(bounded, 0.1, 1e-12, block=True)(X)
    assert excinfo.value.row_index == 2
    with pytest.raises(SolverError, match="no sign change"):
        solve_vector(bounded, 0.1, X[2])


def test_componentwise_block_names_the_failing_row():
    from ssbelab.integrator import stage_rule

    # f(y) = -y is not dissipative: at h = 2 the root -x lies outside the
    # bracket [0, x], so every row with x != 0 stalls; zero rows solve exactly.
    anti = make_drift(lambda x: -np.asarray(x, float), 2, name="anti",
                      scalar_eval=lambda y: -y, scalar_deriv=lambda y: np.full_like(y, -1.0))
    X = np.array([[0.0, 0.0], [0.0, 0.25], [1.0, 0.5], [0.0, 0.0]])
    with pytest.raises(SolverError, match="componentwise solve stalled") as excinfo:
        stage_rule(anti, 2.0, 1e-12, block=True)(X)
    assert excinfo.value.row_index == 2
    with pytest.raises(SolverError) as excinfo:
        solve_componentwise(anti, 2.0, X[2])
    assert not hasattr(excinfo.value, "row_index")
