import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.implicit import (
    MAX_BISECT,
    SolverError,
    solve_componentwise,
    solve_radial,
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


def _componentwise_linear(lam):
    """f(x) = lam x with the scalar forms the catalogue's linear drift declared
    before it became affine only; the linear digests below were taken on it."""
    return make_drift(lambda x: lam * x, 1, name="linear",
                      scalar_eval=lambda y: lam * np.asarray(y, dtype=np.float64),
                      scalar_deriv=lambda y: np.full_like(np.asarray(y, dtype=np.float64), lam))


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
    # Plain eval-only drift (no jacobian, not componentwise): Newton on a
    # finite-difference Jacobian solves it.
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


def test_finite_difference_newton_solves_where_the_fixed_point_stalls(monkeypatch):
    # The damped fixed point alone uses up its 200 iterations here short of
    # tol; Newton on a finite-difference Jacobian, which runs first, solves
    # the state and the fixed point never runs.
    from ssbelab import implicit

    # Newton reuses the drift value of each accepted iterate as the base of
    # its finite differences: 1 + 3 iterations x (3 columns + 1 line-search
    # trial) evaluations, not a fresh drift(y) per iteration on top.
    evals = []
    wig = make_drift(
        lambda x: evals.append(1) or np.asarray(x, float) * (1 + 0.9 * np.cos(np.asarray(x, float))),
        3,
        name="wiggle3",
    )
    h = 0.4701474891667907
    x = np.array([0.04680225873253637, -0.15824046190763832, -0.0005833097855893088])
    assert implicit._fixed_point_vector(wig, h, x, 1e-12)[1] == 4 * implicit.MAX_NEWTON
    calls, newton_evals = [], []
    fd_jac, newton = implicit._fd_jac, implicit._newton_vector
    monkeypatch.setattr(implicit, "_fd_jac", lambda *a: calls.append(a) or fd_jac(*a))

    def counted_newton(*a):
        before = len(evals)
        out = newton(*a)
        newton_evals.append(len(evals) - before)
        return out

    monkeypatch.setattr(implicit, "_newton_vector", counted_newton)
    evals.clear()
    sol = solve_vector(wig, h, x)
    assert calls
    assert sol.iterations == 3 and newton_evals == [13] and len(evals) == 13
    assert np.linalg.norm(sol.x_star - x + h * wig(sol.x_star)) <= 1e-12
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("jac", [True, False])
def test_generic_vector_residual_floor_scales_with_the_state(jac):
    # The generic route compared ||F|| with the raw tol, which no iterate can
    # meet once an ulp of the state exceeds it: at |x| ~ 1e5 most solves of
    # this linear drift raised SolverError.
    lin = builtin_drift("linear", A=[[-1.0, 0.5], [-0.5, -2.0]])
    gen = make_drift(lin.eval, 2, jac=lin.jac if jac else None)
    rng = np.random.default_rng(0)
    for scale in (1e4, 1e5, 1e6, 1e9):
        for _ in range(50):
            x = rng.standard_normal(2) * scale
            sol = solve_vector(gen, 0.1, x)
            floor = max(1e-12, 4.0 * np.spacing(np.abs(x).max()))
            assert sol.residual <= floor
            assert np.linalg.norm(sol.x_star - x + 0.1 * gen(sol.x_star)) <= 2.0 * floor


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
    drift = _componentwise_linear(1.0) if name == "linear" else builtin_drift(name)
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
@pytest.mark.parametrize(
    "m, d",
    [(1, 3), (4, 3), (16, 3), (1, 2), (4, 2), (16, 2), (1, 8), (4, 8), (16, 8)],
    ids=["1", "4", "16", "1-d2", "4-d2", "16-d2", "1-d8", "4-d8", "16-d8"],
)
def test_radial_rows_match_per_row_reference_bitwise(seed, c, m, d):
    from ssbelab.integrator import stage_rule

    drift = builtin_drift("saturating", c=c, d=d)
    rng = np.random.default_rng(seed)
    for h in (0.05, 0.5, 5.0):
        # Past the drift's h_max (c h > 8) stage_rule refuses the step; the
        # solver itself keeps no bound, and is held to the same bits there.
        if h <= drift.h_max:
            stage = stage_rule(drift, h, 1e-12, block=True)
        else:
            stage = lambda X, h=h: solve_radial(drift, h, X, 1e-12).x_star
        for k in range(12):
            X = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-4.0, 2.0, (m, 1))
            # A -0.0 entry of a nonzero row keeps its sign in the stage; a zero row's stage is +0.0.
            X[(k + 1) % m, k % d] = -0.0
            if m > 1:
                X[k % m] = 0.0 if k % 2 else -0.0
            ref = [_radial_row_reference(drift.radial_gain, h, x) for x in X]
            Y = stage(X)
            assert Y.tobytes() == np.array([y for y, _, _ in ref]).tobytes()
            for x, (y, it, resid) in zip(X, ref):
                sol = solve_vector(drift, h, x)
                assert np.asarray(sol.x_star).tobytes() == y.tobytes()
                assert sol.iterations == it and sol.residual == resid


def test_block_radii_keep_the_row_dot_bits():
    # solve_radial takes a block's radii with one vecdot; np.linalg.norm, the
    # per-row oracle, is sqrt(x.dot(x)).
    rng = np.random.default_rng(20)
    for d in range(2, 9):
        for scale in (1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150):
            X = rng.standard_normal((500, d)) * scale * 10.0 ** rng.uniform(-1.0, 1.0, (500, 1))
            rows = np.array([math.sqrt(x.dot(x)) for x in X])
            assert np.sqrt(np.vecdot(X, X)).tobytes() == rows.tobytes()


def test_radial_block_solves_each_nonzero_row_once_through_the_integrator(monkeypatch):
    from ssbelab import integrator
    from ssbelab.schedules import schedule_family

    calls = []

    def counting(drift, h, x, tol=1e-12):
        calls.append(x)
        return solve_scalar(drift, h, x, tol)

    monkeypatch.setattr(integrator, "solve_scalar", counting)
    drift = builtin_drift("saturating", c=2.0, d=3)
    sched = schedule_family("power", h=0.1, c=1.0, p=0.5, d=3, r=3)
    summaries = integrator.integrate_paths_lockstep(drift, sched, [1.0, -2.0, 0.5], 50, 3, 42, range(5))
    assert len(summaries) == 5 and len(calls) == 5 * 50
    calls.clear()
    X = np.array([[0.0, 0.0, 0.0], [1.0, -0.0, 2.0], [-0.0, -0.0, 0.0], [0.0, 0.0, 3.0]])
    Y = integrator.stage_rule(drift, 0.1, 1e-12, block=True)(X)
    assert calls == [math.sqrt(5.0), 3.0]
    assert Y[[0, 2]].tobytes() == np.zeros((2, 3)).tobytes()


def test_radial_stage_checks_contraction_of_each_row():
    from ssbelab.implicit import ImplicitSolution

    def outward(ray, h, rho, tol):
        return ImplicitSolution(1.5 * rho, 1, 0.0)

    drift = builtin_drift("saturating", c=2.0, d=3)
    X = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    with pytest.raises(SolverError, match="contraction violated") as exc:
        solve_radial(drift, 0.1, X, 1e-12, outward)
    assert exc.value.row_index == 1


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


def test_an_overflowing_derivative_bisects():
    # arctan's slope 1 / (1 + y**2) raised OverflowError for |y| past ~1e154.
    drift = builtin_drift("arctan")
    for x in (1e300, -1e200):
        sol = solve_scalar(drift, 0.1, x, 1e-12)
        assert abs(sol.x_star - x + 0.1 * np.arctan(sol.x_star)) <= sol.residual


@pytest.mark.parametrize("c", [1.0, 0.37, 25.0])
def test_saturating_scalar_stage_keeps_the_array_route_bits(c):
    # At d = 1 the saturating drift's scalar_eval evaluates c y / (1 + y y) on
    # floats; without it solve_scalar evaluated f through a numpy array.
    import dataclasses

    sat = builtin_drift("saturating", c=c)
    via_array = dataclasses.replace(sat, scalar_eval=None)
    assert sat.scalar_eval is not None and builtin_drift("saturating", d=3).scalar_eval is None
    rng = np.random.default_rng(1)
    for _ in range(1000):
        h = float(10.0 ** rng.uniform(-3, 2))
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6))
        got, want = solve_scalar(sat, h, x), solve_scalar(via_array, h, x)
        assert repr((got.x_star, got.iterations, got.residual)) == \
            repr((want.x_star, want.iterations, want.residual))


# SHA-256 of (x*, iterations, residual) over 300 seeded (h, x) pairs per
# drift, recorded before solve_scalar's loop was restructured.  The radial
# ray has no derivative, so every one of its steps bisects.  The short_newton
# cubic declares a slope far too steep: its Newton steps fall short, and 175
# of its 300 solves spend all MAX_NEWTON of them and finish on the bisection
# steps that follow, which pins the hand-over from Newton to bisection.
SCALAR_SOLVE_DIGESTS = {
    "linear": "417c0ac2fe6d1af2059fdb9fbfbcad540a72d1431e1aed124714a6557f3c966f",
    "cubic": "1788c74e15e7135b16d2dc9bd78a0ebb0ccaf67945f1eb18583d67796540ccf6",
    "arctan": "d6e14fcd3077075bf9fb39abc8dfae4bda17fcbeb84bb1131986456d0bacbdbb",
    "saturating": "3b63a4f30562e4e7b958db7df31fc2d4c812b36c66f8c3e48679198bc023ef43",
    "ray": "1cd4204161de2f8666bd625b88bf9fee000a155c97eda09634e8595bc3cebc7d",
    "short_newton": "7996a193ea5e71f831419ffd9f04cce99da43a759df3452330b66bc5b4290dd1",
}


@pytest.mark.parametrize("name", sorted(SCALAR_SOLVE_DIGESTS))
def test_scalar_solves_keep_their_bits(name):
    import hashlib
    import struct

    from ssbelab.implicit import _Ray

    if name == "ray":
        drift = _Ray(builtin_drift("saturating", c=2.0, d=3).radial_gain)
    elif name == "short_newton":
        drift = make_drift(lambda x: x + x**3, 1, scalar_eval=lambda y: y + y * y * y,
                           scalar_deriv=lambda y: 100.0 + 0.0 * y)
    elif name == "linear":
        drift = _componentwise_linear(0.37)
    else:
        drift = builtin_drift(name, **{"saturating": {"c": 2.0}}.get(name, {}))
    rng = np.random.default_rng(19)
    digest = hashlib.sha256()
    for _ in range(300):
        h = float(10.0 ** rng.uniform(-3, 1))
        x = float(10.0 ** rng.uniform(-4, 3))
        if name != "ray" and rng.random() < 0.5:
            x = -x
        sol = solve_scalar(drift, h, x)
        digest.update(struct.pack("<dqd", sol.x_star, sol.iterations, sol.residual))
    assert digest.hexdigest() == SCALAR_SOLVE_DIGESTS[name]


@pytest.mark.parametrize("name", ["linear", "cubic", "arctan", "saturating"])
def test_an_implicit_solution_is_immutable(name):
    # Every built-in d = 1 drift's solve runs on Python floats.
    sol = solve_scalar(builtin_drift(name), 0.5, 2.0)
    assert type(sol.x_star) is float and type(sol.iterations) is int and type(sol.residual) is float
    assert sol.residual <= 1e-12
    for field in ("x_star", "iterations", "residual"):
        with pytest.raises(AttributeError):
            setattr(sol, field, 0.0)


@pytest.mark.parametrize("x", [1e200, -1e200])
def test_an_exact_root_at_the_far_end_of_the_bracket(x):
    # The saturating gain c x / (1 + x x) rounds to 0.0 at |x| = 1e200, so
    # G_x vanishes at y = x, the end of the bracket [0, x] away from 0.
    assert solve_scalar(builtin_drift("saturating"), 0.1, x) == (x, 0, 0.0)


def test_a_tiny_radius_keeps_its_row():
    # x.dot(x) underflows to 0.0 at 1e-170: the row read as a zero row and
    # came back as [0, 0, 0] without its contraction check.
    sol = solve_vector(builtin_drift("saturating", d=3), 0.1, [1e-170, 0.0, 0.0])
    assert sol.x_star.tolist() == [5e-171, 0.0, 0.0]
    assert sol.iterations == 1


def test_a_tiny_radius_in_a_block_leaves_the_other_rows_their_bits():
    from ssbelab.implicit import solve_radial

    drift = builtin_drift("saturating", c=2.0, d=3)
    ordinary = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [3e-154, 1e-154, 0.0], [-7.0, 0.25, 1e3]])
    X = np.insert(ordinary, 2, [[1e-170, -1e-170, 0.0], [-1e-320, 5e-324, 0.0]], axis=0)
    Y, _, _ = solve_radial(drift, 0.1, X)
    Y_ordinary, _, _ = solve_radial(drift, 0.1, ordinary)
    assert Y[[0, 1, 4, 5]].tobytes() == Y_ordinary.tobytes()
    for x, y in zip(X[2:4], Y[2:4]):
        assert 0.0 < np.abs(y).max() < np.abs(x).max()
        assert np.array_equal(np.sign(y), np.sign(x) * (np.abs(y) > 0))


@pytest.mark.parametrize("big", [1e200, 1e300, 1.7e308])
def test_a_radius_whose_square_overflows_keeps_its_row(big):
    # x.dot(x) overflows to inf past 1.34e154: the radius solve stalled at
    # residual nan, so a finite state had no radial stage.
    drift = builtin_drift("saturating", c=1.0, d=3)
    ordinary = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    X = np.insert(ordinary, 1, [[big, 0.0, 0.0], [-big / 2, big / 2, -big / 4]], axis=0)
    with np.errstate(over="ignore"):
        Y, _, residual = solve_radial(drift, 0.1, X)
        Y_ordinary, _, _ = solve_radial(drift, 0.1, ordinary)
    assert Y[[0, 3]].tobytes() == Y_ordinary.tobytes()
    assert residual <= 1e-12
    # The gain is below half an ulp of the radius this far out: each row is its own stage.
    assert Y[1:3].tobytes() == X[1:3].tobytes()


def _linear_generic(h, jac_sign, calls):
    # f(y) = y with no componentwise or radial structure: the generic vector
    # route, whose root is x / (1 + h). jac_sign = -1 declares the wrong sign.
    def jac(y):
        calls.append("jac")
        return jac_sign * np.eye(y.size)

    return make_drift(lambda y: calls.append("f") or np.asarray(y, float), 2, name="lin2", jac=jac)


def _solves_to(sol, x, h):
    assert np.abs(sol.x_star - x / (1.0 + h)).max() <= 1e-12
    assert sol.residual <= 1e-12


def test_a_singular_newton_matrix_hands_over_to_the_fixed_point():
    # I + h J is the zero matrix at h = 1 with J = -I: Newton stops before
    # its line search.
    from ssbelab import implicit

    calls = []
    x = np.array([1.0, -2.0])
    drift = _linear_generic(1.0, -1.0, calls)
    y, iters, _ = implicit._newton_vector(drift, 1.0, x, 1e-12, drift.jac)
    assert calls == ["f", "jac"]
    assert y.tolist() == x.tolist() and iters == implicit.MAX_NEWTON
    _solves_to(solve_vector(drift, 1.0, x), x, 1.0)


def test_newtons_line_search_running_out_hands_over_to_the_fixed_point():
    # At h = 2 the flipped Jacobian makes each Newton direction an ascent:
    # no step length from 1 down to 2^-30 lowers ||F||.
    from ssbelab import implicit

    calls = []
    x = np.array([1.0, -2.0])
    drift = _linear_generic(2.0, -1.0, calls)
    y, iters, _ = implicit._newton_vector(drift, 2.0, x, 1e-12, drift.jac)
    assert calls == ["f", "jac"] + ["f"] * 31
    assert y.tolist() == x.tolist() and iters == implicit.MAX_NEWTON
    _solves_to(solve_vector(drift, 2.0, x), x, 2.0)


def test_newton_spending_every_iteration_is_rescued_by_the_fixed_point():
    # At h = 0.33 the flipped Jacobian's full steps shrink ||F|| by 0.985
    # each, which MAX_NEWTON steps leave far above tol.
    from ssbelab import implicit

    calls = []
    x = np.array([1.0, -2.0])
    drift = _linear_generic(0.33, -1.0, calls)
    _, iters, resid = implicit._newton_vector(drift, 0.33, x, 1e-12, drift.jac)
    assert calls.count("jac") == implicit.MAX_NEWTON and iters == implicit.MAX_NEWTON
    assert 1e-3 < resid < 0.33 * np.linalg.norm(x)
    sol = solve_vector(drift, 0.33, x)
    _solves_to(sol, x, 0.33)
    assert sol.iterations < implicit.MAX_NEWTON


def test_the_damped_fixed_point_halves_its_step():
    # f(y) = 30 y at h = 1: the full fixed-point step y -> x - 30 y overshoots
    # (||F|| grows 30-fold), so theta halves until it contracts, and spends
    # its 200 iterations short of tol.  Newton on finite differences, which
    # runs first, solves the state in 7 drift evaluations.
    from ssbelab import implicit

    evals = []
    drift = make_drift(lambda y: evals.append(1) or 30.0 * np.asarray(y, float), 2, name="steep")
    x = np.array([1.0, -2.0])
    y, iters, resid = implicit._fixed_point_vector(drift, 1.0, x, 1e-12)
    assert iters == 4 * implicit.MAX_NEWTON and resid < 0.1 * np.linalg.norm(30.0 * x)
    assert np.abs(y - x / 31.0).max() < np.abs(x / 31.0).max()
    evals.clear()
    sol = solve_vector(drift, 1.0, x)
    assert np.abs(sol.x_star - x / 31.0).max() <= 1e-12
    assert len(evals) <= 7


def test_the_generic_route_stalls_when_both_routes_fail():
    # f(y) = -y at h = 1 leaves F(y) = -x for every y: no root exists.
    anti = make_drift(lambda y: -np.asarray(y, float), 2, name="anti", dissipative=False,
                      jac=lambda y: -np.eye(2))
    with pytest.raises(SolverError, match="vector implicit solve stalled at residual") as excinfo:
        solve_vector(anti, 1.0, np.array([3.0, 4.0]))
    assert excinfo.value.residual == 5.0


def _generic_battery():
    """Generic drifts (no componentwise or radial structure), each as
    (eval, d, Jacobian); "linear_flipped" declares the negated Jacobian,
    whose Newton directions fail and leave the state to the fixed point."""
    lin = builtin_drift("linear", A=[[-1.0, 0.5], [-0.5, -2.0]])

    def wiggle(y):
        y = np.asarray(y, float)
        return y * (1 + 0.9 * np.cos(y))

    def saturating_jac(c):
        def jac(y):
            s = 1.0 + y.dot(y)
            return c / s * np.eye(y.size) - 2.0 * c / (s * s) * np.outer(y, y)
        return jac

    return {
        "tanh": (lambda y: np.tanh(np.asarray(y, float)) + 0.1 * np.asarray(y, float), 2,
                 lambda y: np.diag(1.1 - np.tanh(y) ** 2)),
        "wiggle": (wiggle, 3, lambda y: np.diag(1 + 0.9 * np.cos(y) - 0.9 * y * np.sin(y))),
        "steep": (lambda y: 30.0 * np.asarray(y, float), 2, lambda y: 30.0 * np.eye(y.size)),
        "saturating_c1": (builtin_drift("saturating", c=1.0, d=2).eval, 2, saturating_jac(1.0)),
        "saturating_c10": (builtin_drift("saturating", c=10.0, d=3).eval, 3, saturating_jac(10.0)),
        "cubic": (builtin_drift("cubic", d=2).eval, 2, lambda y: np.diag(1.0 + 3.0 * y * y)),
        "arctan": (np.arctan, 2, lambda y: np.diag(1.0 / (1.0 + y * y))),
        "linear": (lin.eval, 2, lin.jac),
        "linear_flipped": (lin.eval, 2, lambda y: -lin.jac(y)),
    }


def _generic_battery_run(name, with_jac):
    """Solve 200 seeded (h, x), h in [1e-3, 10] and |x_i| in [1e-4, 1e3];
    returns the indices of the failing solves and a SHA-256 over x*,
    iterations and residual of each success and the message of each failure."""
    import hashlib
    import struct

    f, d, jac = _generic_battery()[name]
    drift = make_drift(f, d, name=name, jac=jac if with_jac else None)
    rng = np.random.default_rng(25 + sorted(_generic_battery()).index(name))
    failed, digest = [], hashlib.sha256()
    for i in range(200):
        h = float(10.0 ** rng.uniform(-3, 1))
        x = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-4, 3, d)
        # Large h and x overflow the fixed point's trial iterates.
        with np.errstate(all="ignore"):
            try:
                sol = solve_vector(drift, h, x)
            except SolverError as exc:
                failed.append(i)
                digest.update(str(exc).encode())
                continue
        assert sol.residual <= max(1e-12, 4.0 * np.spacing(np.abs(x).max()))
        digest.update(sol.x_star.tobytes())
        digest.update(struct.pack("<qd", sol.iterations, sol.residual))
    return failed, digest.hexdigest()


# The generic solves without a Jacobian that fail, recorded while the damped
# fixed point still ran before Newton on finite differences.  The wiggle's
# residual is non-monotone and saturating at c = 10 is steep near the origin:
# at large h neither route reaches tol.
GENERIC_NO_JAC_FAILURES = {
    "arctan": [], "cubic": [], "linear": [], "saturating_c1": [], "steep": [], "tanh": [],
    "saturating_c10": [26, 50, 130, 132],
    "wiggle": [15, 16, 25, 35, 37, 39, 40, 42, 55, 59, 70, 71, 88, 96, 107, 110, 118, 121, 131, 137,
               139, 141, 146, 172, 177, 180, 189, 199],
}


@pytest.mark.parametrize("name", sorted(set(_generic_battery()) - {"linear_flipped"}))
def test_generic_solves_without_a_jacobian_keep_their_successes(name):
    assert _generic_battery_run(name, with_jac=False)[0] == GENERIC_NO_JAC_FAILURES[name]


# Recorded before Newton became the first solver of every generic drift;
# a declared Jacobian always ran Newton first.
GENERIC_JAC_DIGESTS = {
    "arctan": "2e45b4b906af290833d91cc6fff25cf4758519a08537e1f3b8176ba1d7e65a04",
    "cubic": "9098af64f62cb3591626faaf82ccd545cc766285c4f39cc492fd10096602977a",
    "linear": "66392b087674513db8e1cf32964fa5919c7e64e18b57019c80c6bc921bb580b0",
    "linear_flipped": "8ffeef0a47501d5371077c629b3841e2aa4e5e39e45a405ca19891d30774bf5e",
    "saturating_c1": "ac50da5e058fb939889118a3e9e914dc63e6602f7c4fdb1f92ff1a9fe00a3413",
    "saturating_c10": "709e99a213662563f676acabb219c44a83a89d3f432b7cd71dbadf9e8c46d444",
    "steep": "de0129804222bc7cedd7c4a7a8e4e3ecdaa0068039381d28d094a51bd007fe5a",
    "tanh": "7eedba4199f01ebacd9bfe40f968faead1530f4249ace2372c02689ec90ee7b9",
    "wiggle": "bacf0001d9e6171a8824673372ae76c7aed76fc094a37e26e0bc44dc48014767",
}


@pytest.mark.parametrize("name", sorted(_generic_battery()))
def test_generic_solves_with_a_jacobian_keep_their_bits(name):
    assert _generic_battery_run(name, with_jac=True)[1] == GENERIC_JAC_DIGESTS[name]


def _cubic_without_derivative():
    cube = lambda y: y + y * y * y
    return make_drift(cube, 1, name="cubic_no_deriv", scalar_eval=cube)


def test_tiny_states_keep_their_bracket_side():
    # The side test g * glo < 0 underflowed to -0.0 once both residuals were
    # tiny, moving lo where hi should move: at tol = 1e-300 both solvers
    # stalled near 1e-150.  The root of y - x + h (y + y^3) there is x / (1 + h).
    drift, h = _cubic_without_derivative(), 0.1
    sol = solve_scalar(drift, h, 1e-150, tol=1e-300)
    floor = 4.0 * math.ulp(1e-150)
    assert sol.residual <= floor and abs(sol.x_star - 1e-150 / 1.1) <= floor
    block = np.array([[1e-150, -1e-150], [0.5, -1e-150], [-3.0, 1e-150]])
    for x in (np.array([1e-150]), np.array(1e-150), block):
        y = solve_componentwise(drift, h, x, tol=1e-300).x_star
        assert y.shape == x.shape
        floor = 4.0 * np.spacing(np.abs(x))
        assert (np.abs(y - x + h * (y + y**3)) <= floor).all()
        tiny = np.abs(x) == 1e-150
        assert (np.abs(y - x / 1.1)[tiny] <= floor[tiny]).all()


@pytest.mark.parametrize("deriv", [True, False])
def test_a_reversed_bracket_keeps_its_root(deriv):
    # f(y) = 2 - 3 y + 0.1 y^3 is not dissipative: at x = 1, h = 1 the residual
    # is positive at lo = 0 and negative at hi = x, the reverse of a dissipative
    # drift's.  Root, iterations and residual as recorded before the side was
    # fixed at set-up.
    drift = make_drift(lambda y: 2.0 - 3.0 * y + 0.1 * y**3, 1, name="reversed", dissipative=False,
                       scalar_eval=lambda y: 2.0 - 3.0 * y + 0.1 * y * y * y,
                       scalar_deriv=(lambda y: -3.0 + 0.3 * y * y) if deriv else None)
    y, iters, resid = solve_scalar(drift, 1.0, 1.0)
    Y, block_iters, block_resid = solve_componentwise(drift, 1.0, np.array([1.0]))
    if deriv:
        assert repr((y, iters, resid)) == "(0.5064968097156131, 4, 0.0)"
        assert repr((Y.tolist(), block_iters, block_resid)) == \
            "([0.506496809715613], 5, 3.3306690738754696e-16)"
    else:
        assert repr((y, iters, resid)) == "(0.5064968097158271, 39, 4.1167069753100805e-13)"
        assert repr((Y.tolist(), block_iters, block_resid)) == \
            "([0.5064968097158271], 40, 4.1167069753100805e-13)"


def test_every_stage_solver_returns_an_implicit_solution():
    from ssbelab.implicit import ImplicitSolution

    X = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    sat = builtin_drift("saturating", c=2.0, d=3)
    solutions = [
        solve_scalar(builtin_drift("cubic"), 0.1, 1.0),
        solve_componentwise(builtin_drift("cubic"), 0.1, X),
        solve_radial(sat, 0.1, X),
        solve_vector(sat, 0.1, X[0]),
        solve_vector(make_drift(sat.eval, 3), 0.1, X[0]),
    ]
    assert all(type(sol) is ImplicitSolution for sol in solutions)
    assert [np.shape(sol.x_star) for sol in solutions] == [(), (2, 3), (2, 3), (3,), (3,)]


def _componentwise_battery_drift(name):
    cube = lambda y: y + y * y * y
    if name == "no_deriv":
        return make_drift(cube, 1, name="no_deriv", scalar_eval=cube)
    if name == "short_newton":
        return make_drift(cube, 1, name="short_newton", scalar_eval=cube,
                          scalar_deriv=lambda y: 100.0 + 0.0 * y)
    if name == "wiggle":
        return _wiggle_drift()
    if name == "linear":
        return _componentwise_linear(0.37)
    return builtin_drift(name)


def _componentwise_battery_digest(drift):
    """SHA-256 over y's bits, iterations and max_residual of a seeded battery
    of blocks: shapes from 0-d to (256,), entries 0.0 and -0.0 among |x| in
    [1e-8, 1e4], h in [1e-3, 10].  A failing solve adds its message, its
    best iterate and its row instead."""
    import hashlib
    import struct
    import warnings

    rng = np.random.default_rng(24)
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [(200, 1), (4, 6), (7, 3), (256,), (0, 1), ()]:
            for _ in range(25):
                h = float(10.0 ** rng.uniform(-3, 1))
                x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 4, shape)
                x = np.where(rng.random(shape) < 0.05, rng.choice([0.0, -0.0], shape), x)
                try:
                    y, iters, resid = solve_componentwise(drift, h, x)
                except SolverError as exc:
                    digest.update(str(exc).encode())
                    digest.update(np.asarray(exc.best).tobytes())
                    digest.update(struct.pack("<q", getattr(exc, "row_index", -1)))
                    continue
                assert np.shape(y) == shape
                digest.update(y.tobytes())
                digest.update(struct.pack("<qd", iters, resid))
    return digest.hexdigest()


# Recorded before solve_componentwise's loop was restructured.  Without a
# derivative every step bisects; the short_newton cubic's slope of 100 sends
# candidates out of the bracket and makes others fail to improve, so the
# midpoint fallbacks run; the wiggle drift's residual is non-monotone.
COMPONENTWISE_SOLVE_DIGESTS = {
    "cubic": "99f4fd937b6111e820738602a2a1cd6b14e3261f0a7009ee5ad5dc21ecc5d6bd",
    "arctan": "9dd2a21d80c824449fb2a5dcbf8e2bea0b78b4218450ca0a9056a4647f3ad23b",
    "linear": "62ab414e478a0369fb9c0ad585105f0ec23be2a0ad0f45b87c5fb29c015a3b35",
    "no_deriv": "235a80d2660c67cbc5e773593afab440b92763b6b4fef1abc9df2d870d302069",
    "short_newton": "6cad936b78cec82c278d1fd5e61b78a4553fa8c9eb00254dc7f21a0995431e4a",
    "wiggle": "5cf0a5225f35591223a26b89f63079a36ef5322b4950369b3e6856a744e6acb3",
}


@pytest.mark.parametrize("name", sorted(COMPONENTWISE_SOLVE_DIGESTS))
def test_componentwise_solves_keep_their_bits(name):
    digest = _componentwise_battery_digest(_componentwise_battery_drift(name))
    assert digest == COMPONENTWISE_SOLVE_DIGESTS[name]


_SHARED_ONES = np.ones((4, 3))


@pytest.mark.parametrize("deriv", ["argument", "shared", "numpy_float", None])
@pytest.mark.parametrize("drift_value", ["argument", "shared", "numpy_float"])
def test_the_componentwise_solve_writes_into_no_drift_output(drift_value, deriv):
    # A drift may hand back its argument, an array it keeps, or a numpy
    # scalar; the solver only reads them, and returns an array of its own.
    outputs = []

    def returned(kind, y):
        out = {"argument": y, "shared": _SHARED_ONES, "numpy_float": np.float64(1.0)}[kind]
        outputs.append(out)
        return out

    drift = make_drift(lambda x: np.asarray(x, float), 3, name="read_only",
                       scalar_eval=lambda y: returned(drift_value, y),
                       scalar_deriv=None if deriv is None else lambda y: returned(deriv, y))
    x = np.linspace(1.5, 3.0, 12).reshape(4, 3)
    x_before = x.copy()
    y, _, resid = solve_componentwise(drift, 0.5, x)
    f_y = y if drift_value == "argument" else 1.0
    assert resid <= 1e-12 and np.abs(y - x + 0.5 * f_y).max() <= 1e-12
    assert x.tobytes() == x_before.tobytes()
    assert (_SHARED_ONES == 1.0).all()
    assert not np.shares_memory(y, x)
    assert not any(np.shares_memory(y, out) for out in outputs if isinstance(out, np.ndarray))


def test_overflow_inside_a_componentwise_solve_is_quiet():
    # The cubic's f, its slope and the Newton candidate overflow at 1e200;
    # only the solve's own SolverError comes out.  Arctan's slope
    # 1 / (1 + y**2) overflows too, and its solve succeeds.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([[1e200]], [1e200, 1.0, -1e160], 1e200):
            with pytest.raises(SolverError, match="componentwise solve stalled at residual inf"):
                solve_componentwise(builtin_drift("cubic"), 50.0, np.array(x))
        x = np.array([[1e300, -1e200]])
        y, _, resid = solve_componentwise(builtin_drift("arctan"), 50.0, x)
    assert y.tobytes() == x.tobytes() and resid == 50.0 * math.atan(1e300)
