import hashlib

import numpy as np
import pytest

from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.gaussian import derive_substream
from ssbelab.integrator import (
    dump_path_csv,
    energy_identity_residuals,
    integrate,
    integrate_paths_lockstep,
    step_identity_residuals,
)
from ssbelab.schedules import schedule_family


def test_zero_noise_halving():
    lin = builtin_drift("linear", lam=1.0)
    rec = integrate(lin, schedule_family("zero", h=1.0), [1.0], 12, derive_substream(0, 0, 1))
    assert np.allclose(rec.X[:, 0], 0.5 ** np.arange(13), atol=1e-15)
    assert rec.summary.sup_norm == 1.0
    assert rec.summary.final_norm == pytest.approx(2.0**-12)


def test_near_identity_drift_is_random_walk():
    eps = 1e-15
    tiny = make_drift(lambda x: eps * np.asarray(x, float), 1, name="tiny",
                      scalar_eval=lambda y: eps * y, scalar_deriv=lambda y: np.full_like(np.asarray(y, float), eps))
    sched = schedule_family("constant", h=1.0, c=1.0)
    stream = derive_substream(21, 0, 1)
    rec = integrate(tiny, sched, [0.0], 1000, stream)
    walk = np.concatenate([[0.0], np.cumsum(rec.U[:, 0])])
    assert np.abs(rec.X[:, 0] - walk).max() < 1e-10


def test_recurrence_is_bitwise():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.25, c=1.0, p=0.7)
    rec = integrate(drift, sched, [2.0], 500, derive_substream(5, 2, 1))
    lhs = rec.X[1:]
    rhs = rec.X_star + rec.U
    assert (lhs == rhs).all()


def test_implicit_relation_holds_at_tolerance():
    drift = builtin_drift("cubic")
    sched = schedule_family("inverse_log", h=0.5, a=1.0, b=2.0)
    rec = integrate(drift, sched, [1.5], 400, derive_substream(5, 0, 1), tol=1e-12)
    resid = rec.X_star - rec.X[:-1] + rec.h * drift(rec.X_star)
    assert np.abs(resid).max() <= 1e-12


def test_contraction_along_path():
    drift = builtin_drift("arctan")
    sched = schedule_family("constant", h=0.2, c=0.5)
    rec = integrate(drift, sched, [3.0], 300, derive_substream(6, 1, 1))
    ns = np.linalg.norm(rec.X[:-1], axis=1)
    nstar = np.linalg.norm(rec.X_star, axis=1)
    nonzero = ns > 0
    assert (nstar[nonzero] < ns[nonzero]).all()


def test_step_and_energy_identities_short():
    drift = builtin_drift("cubic")
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    rec = integrate(drift, sched, [1.0], 3000, derive_substream(42, 0, 1))
    assert float(step_identity_residuals(rec, drift).max()) <= 1e-10
    assert float(energy_identity_residuals(rec, drift).max()) <= 1e-8


def test_determinism():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    a = integrate(drift, sched, [1.0], 200, derive_substream(9, 4, 1))
    b = integrate(drift, sched, [1.0], 200, derive_substream(9, 4, 1))
    assert (a.X == b.X).all() and (a.U == b.U).all()


def test_dimension_validation():
    drift = builtin_drift("cubic", d=2)
    sched = schedule_family("zero", h=1.0, d=2, r=3)
    with pytest.raises(ValueError):
        integrate(drift, sched, [1.0], 10, derive_substream(0, 0, 3))
    with pytest.raises(ValueError):
        integrate(drift, sched, [1.0, 1.0], 10, derive_substream(0, 0, 2))  # r mismatch
    with pytest.raises(ValueError):
        integrate(drift, sched, [1.0, 1.0], 0, derive_substream(0, 0, 3))


def test_lockstep_dimension_validation():
    cubic2 = builtin_drift("cubic", d=2)
    with pytest.raises(ValueError, match="dimensions disagree"):
        integrate_paths_lockstep(cubic2, schedule_family("power", h=0.1, c=1.0, p=1.0),
                                 [1.0, 1.0], 50, 1, 0, range(2))
    with pytest.raises(ValueError, match="dimensions disagree"):
        integrate_paths_lockstep(cubic2, schedule_family("zero", h=0.1, d=2, r=3),
                                 [1.0, 1.0], 50, 2, 0, range(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_state_rejected(bad):
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    with pytest.raises(ValueError, match="finite"):
        integrate(drift, sched, [bad], 10, derive_substream(0, 0, 1))
    with pytest.raises(ValueError, match="finite"):
        integrate_paths_lockstep(drift, sched, [bad], 10, 1, 0, range(2))


def test_affine_scalar_map():
    sched = schedule_family("zero", h=0.1)
    drift = builtin_drift("linear", A=np.array([[-1.0]]))
    rec = integrate(drift, sched, [1.0], 3, derive_substream(0, 0, 1))
    assert rec.X[1, 0] == pytest.approx(1.0 / 1.1, rel=1e-15)


def test_affine_zero_noise_identity_matrix():
    sched = schedule_family("zero", h=1.0, d=2, r=2)
    drift = builtin_drift("linear", A=-np.eye(2))
    rec = integrate(drift, sched, [1.0, 1.0], 8, derive_substream(0, 0, 2))
    assert np.allclose(rec.X, 0.5 ** np.arange(9)[:, None] * np.ones(2), atol=1e-15)


def test_affine_requires_stability():
    sched = schedule_family("zero", h=1.0)
    with pytest.raises(ValueError):
        integrate(builtin_drift("linear", A=np.array([[0.5]])), sched, [1.0], 3,
                  derive_substream(0, 0, 1))


def _undeclared(drift):
    """The same drift with no declared structure: its stage goes through Newton."""
    return make_drift(drift.eval, drift.d, name="undeclared", jac=drift.jac)


def test_affine_cross_check_same_seed():
    A = np.array([[-1.0, 0.5], [-0.5, -2.0]])
    drift = builtin_drift("linear", A=A)
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0, d=2, r=2)
    r1 = integrate(_undeclared(drift), sched, [1.0, -1.0], 1000, derive_substream(3, 7, 2))
    r2 = integrate(drift, sched, [1.0, -1.0], 1000, derive_substream(3, 7, 2))
    assert np.abs(r1.X - r2.X).max() <= 1e-9


def test_lockstep_matches_per_path():
    drift = builtin_drift("cubic")
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    sums = integrate_paths_lockstep(drift, sched, [1.0], 1500, 1, 77, range(4))
    for s in sums:
        rec = integrate(drift, sched, [1.0], 1500, derive_substream(77, s.path_index, 1), "summary")
        t = rec.summary
        assert s.final_norm == pytest.approx(t.final_norm, abs=1e-9)
        assert s.sup_norm == pytest.approx(t.sup_norm, abs=1e-9)
        assert s.window_min == pytest.approx(t.window_min, abs=1e-9)
        assert s.time_avg_sq == pytest.approx(t.time_avg_sq, abs=1e-9)
        assert s.m_over_n == pytest.approx(t.m_over_n, abs=1e-9)
        assert s.shock_sq_avg == pytest.approx(t.shock_sq_avg, abs=1e-9)


def test_lockstep_affine_and_fallback_routes():
    A = np.array([[-2.0]])
    drift = builtin_drift("linear", A=A)
    sched = schedule_family("power", h=0.2, c=0.5, p=1.0)
    sums = integrate_paths_lockstep(drift, sched, [1.0], 800, 1, 5, range(3))
    rec = integrate(drift, sched, [1.0], 800, derive_substream(5, 1, 1), "summary")
    match = [s for s in sums if s.path_index == 1][0]
    assert match.final_norm == pytest.approx(rec.summary.final_norm, abs=1e-10)

    gen = make_drift(lambda x: np.tanh(np.asarray(x, float)) + 0.2 * np.asarray(x, float),
                     1, name="opaque")
    sums2 = integrate_paths_lockstep(gen, sched, [1.0], 100, 1, 5, range(2))
    rec2 = integrate(gen, sched, [1.0], 100, derive_substream(5, 0, 1), "summary")
    assert sums2[0].final_norm == pytest.approx(rec2.summary.final_norm, abs=1e-9)

    # Radial drift, d = r = 3: lockstep and per-path runs call the same stage.
    sat = builtin_drift("saturating", c=1.0, d=3)
    sched3 = schedule_family("power", h=0.1, c=1.0, p=1.0, d=3, r=3)
    sums3 = integrate_paths_lockstep(sat, sched3, [1.0, 1.0, 1.0], 300, 3, 8, range(3))
    for s in sums3:
        t = integrate(sat, sched3, [1.0, 1.0, 1.0], 300, derive_substream(8, s.path_index, 3),
                      "summary").summary
        for field in ("final_norm", "sup_norm", "window_min", "window_max", "time_avg_sq",
                      "m_over_n", "m_abs_over_qv", "shock_sq_avg"):
            assert getattr(s, field) == pytest.approx(getattr(t, field), abs=1e-12)

    # Affine-declared block (C(h)) vs the same drift with no declared structure.
    A2 = np.array([[-1.0, 0.5], [-0.5, -2.0]])
    lin2 = builtin_drift("linear", A=A2)
    sched2 = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0, d=2, r=2)
    fast = integrate_paths_lockstep(lin2, sched2, [1.0, -1.0], 500, 2, 6, range(3))
    slow = integrate_paths_lockstep(_undeclared(lin2), sched2, [1.0, -1.0], 500, 2, 6, range(3))
    for a, b in zip(fast, slow):
        assert a.final_norm == pytest.approx(b.final_norm, abs=1e-9)
        assert a.sup_norm == pytest.approx(b.sup_norm, abs=1e-9)
        assert a.time_avg_sq == pytest.approx(b.time_avg_sq, abs=1e-9)
        assert a.m_over_n == pytest.approx(b.m_over_n, abs=1e-9)


_SUMMARY_FIELDS = ("final_norm", "sup_norm", "window_min", "window_max", "time_avg_sq",
                   "m_over_n", "m_abs_over_qv", "shock_sq_avg")


def _summary_digest(summaries):
    parts = []
    for s in summaries:
        parts.append(str(s.path_index))
        parts += [float(getattr(s, f)).hex() for f in _SUMMARY_FIELDS]
        for c in s.checkpoints:
            parts.append(str(c.n))
            parts += [float(v).hex() for v in (c.time_avg_sq, c.m_over_n, c.m_abs_over_qv,
                                               c.shock_sq_avg, c.sup_norm)]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def test_lockstep_summaries_keep_their_bits():
    """SHA-256 over float.hex of every summary field, seed 42, 1100 steps.

    The digests were taken from the per-step diagnostics fold with the
    cubic evaluated as x + x**3 (numpy 2.4, x86-64 Linux).  The chunked
    fold reproduces them exactly.  The shipped cubic computes x * x * x,
    which rounds twice where pow rounds once, so it is checked against the
    pow form to 1e-14 relative instead.  The r = 3 ``sat`` digest was
    re-recorded when shocks became a fixed-order sum over the r columns in
    place of a matmul (14 of its 32 summary fields moved, by at most
    1.4e-13 relative); the r = 1 digests did not move.
    """
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    pow_cubic = make_drift(lambda x: x + x**3, 1, name="pow_cubic",
                           scalar_eval=lambda x: x + x**3,
                           scalar_deriv=lambda x: 1.0 + 3.0 * x**2)
    ref = integrate_paths_lockstep(pow_cubic, sched, [1.0], 1100, 1, 42, range(32))
    assert _summary_digest(ref) == "30ceeac3d02ce299e36ca942dd76c9074012c275a2628292694ebf2e03b50172"
    got = integrate_paths_lockstep(builtin_drift("cubic"), sched, [1.0], 1100, 1, 42, range(32))
    for a, b in zip(got, ref):
        for field in _SUMMARY_FIELDS:
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-14, abs=0.0)
        assert [c.n for c in a.checkpoints] == [c.n for c in b.checkpoints] == [1000]

    sat = integrate_paths_lockstep(
        builtin_drift("saturating", c=1.0, d=3),
        schedule_family("power", h=0.1, c=1.0, p=1.0, d=3, r=3),
        [1.0, 1.0, 1.0], 1100, 3, 42, range(4),
    )
    assert _summary_digest(sat) == "4b3033a5b54ba4a204a84bc068be473b618bd59fc6c38657acdefe9ef4958d30"
    regime_c = integrate_paths_lockstep(
        builtin_drift("linear", lam=1.0), schedule_family("constant", h=0.1, c=1.0),
        [1.0], 1100, 1, 42, range(16),
    )
    assert _summary_digest(regime_c) == "f3fbf83ad9b49d93b6def56c97a58ef3a635028617c4a02e4c9de40d2e082d7c"


@pytest.mark.parametrize("drift, sched, zeta", [
    (builtin_drift("saturating", c=1.0, d=3),
     schedule_family("power", h=0.1, c=1.0, p=1.0, d=3, r=3), [1.0, 1.0, 1.0]),
    (builtin_drift("linear", lam=1.0, d=2),
     schedule_family("constant", h=0.1, c=1.0, d=2, r=2), [1.0, -1.0]),
    (builtin_drift("linear", A=[[-1.0, 0.5], [-0.5, -2.0]]),
     schedule_family("constant", h=0.1, c=1.0, d=2, r=2), [1.0, -1.0]),
], ids=["saturating_d3", "affine_d2", "affine_d2_non_diagonal"])
def test_per_path_summaries_equal_lockstep_bitwise(drift, sched, zeta):
    # Both engines share one diagnostics fold and one stage rule, whose
    # affine route takes the same fixed-order sum for a state and for each
    # row of a block, so every summary field and checkpoint agrees bit for bit.
    steps, seed = 1100, 42
    block = integrate_paths_lockstep(drift, sched, zeta, steps, sched.r, seed, range(3))
    for s in block:
        rec = integrate(drift, sched, zeta, steps, derive_substream(seed, s.path_index, sched.r),
                        "summary")
        assert rec.summary == s
        assert [c.n for c in s.checkpoints] == [1000]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("base", ["default", "random"])
@pytest.mark.parametrize("drift_name", ["saturating", "cubic"])
def test_a_paths_bits_do_not_depend_on_its_block(drift_name, base, r):
    # Each path's shocks are one fixed-order sum over the r columns, so its
    # summary is a function of (master_seed, path_index) alone: the same in
    # a block of 5, alone in the lockstep engine and under ``integrate``.
    d, steps, seed = 3, 300, 42
    drift = builtin_drift(drift_name, d=d)
    b = None if base == "default" else np.random.default_rng(r).standard_normal((d, r))
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0, d=d, r=r, base=b)
    zeta = [1.0, -0.5, 0.25]
    block = integrate_paths_lockstep(drift, sched, zeta, steps, r, seed, range(5))
    for s in block:
        (alone,) = integrate_paths_lockstep(drift, sched, zeta, steps, r, seed, [s.path_index])
        rec = integrate(drift, sched, zeta, steps, derive_substream(seed, s.path_index, r),
                        "summary")
        assert alone == s
        assert rec.summary == s


@pytest.mark.parametrize("engine", ["integrate", "lockstep"])
@pytest.mark.parametrize("drift_name", ["cubic", "linear"])
def test_a_non_finite_shock_names_its_own_step(engine, drift_name):
    # sigma(70) = inf, mid-chunk: the cubic stage stalls on the inf state at
    # step 71 and the affine stage carries it on to the chunk's end; either
    # way the failure named is the shock's step, found by the shared fold.
    from ssbelab.diagnostics import NonFiniteError
    from ssbelab.integrator import PathError
    from ssbelab.schedules import tabulated_schedule

    table = np.column_stack([np.arange(200), np.full(200, 0.1)])
    table[70, 1] = np.inf
    sched = tabulated_schedule(table, h=0.1)
    drift = builtin_drift(drift_name)
    with pytest.raises(PathError, match=r"failed at step 70: non-finite shock: \[-?inf\]") as excinfo:
        if engine == "integrate":
            integrate(drift, sched, [1.0], 200, derive_substream(3, 1, 1), "summary")
        else:
            integrate_paths_lockstep(drift, sched, [1.0], 200, 1, 3, range(3))
    exc = excinfo.value
    assert isinstance(exc.__cause__, NonFiniteError)
    assert exc.step_index == 70 and exc.path_index in (0, 1)


@pytest.mark.parametrize("steps", [0, -5])
def test_lockstep_rejects_fewer_than_one_step(steps):
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    with pytest.raises(ValueError, match="at least one step"):
        integrate_paths_lockstep(drift, sched, [1.0], steps, 1, 0, range(2))


@pytest.mark.parametrize("window", [0, -3])
@pytest.mark.parametrize("engine", ["integrate", "lockstep"])
def test_window_below_one_rejected(engine, window):
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    with pytest.raises(ValueError, match="window must be at least 1"):
        if engine == "integrate":
            integrate(drift, sched, [1.0], 10, derive_substream(0, 0, 1), "summary",
                      window=window)
        else:
            integrate_paths_lockstep(drift, sched, [1.0], 10, 1, 0, range(2), window=window)


def test_record_modes(tmp_path):
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.5, c=1.0, p=1.0)
    full = integrate(drift, sched, [1.0], 20, derive_substream(1, 0, 1), "full")
    thin = integrate(drift, sched, [1.0], 20, derive_substream(1, 0, 1), "thin:7")
    summ = integrate(drift, sched, [1.0], 20, derive_substream(1, 0, 1), "summary")
    assert full.X.shape == (21, 1)
    assert list(thin.stored_steps) == [0, 7, 14, 20]
    assert np.allclose(thin.X[:, 0], full.X[[0, 7, 14, 20], 0])
    assert summ.X is None and summ.summary.final_norm == pytest.approx(full.summary.final_norm)
    with pytest.raises(ValueError):
        integrate(drift, sched, [1.0], 20, derive_substream(1, 0, 1), "thin:0")

    out = tmp_path / "path.csv"
    dump_path_csv(full, out)
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("master_seed: 1" in l for l in header)
    assert any(f"h: {0.5!r}" in l for l in header)
    cols = [l for l in lines if not l.startswith("#")][0].split(",")
    assert cols == ["n", "X_1", "Xstar_1", "U_1"]
    body = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(body) == 21
    # Recurrence is recoverable from the file.
    for n in range(1, 21):
        x_prev_star = float(body[n - 1][2])
        u = float(body[n][3])
        assert float(body[n][1]) == x_prev_star + u
    assert body[0][3] == "nan" and body[20][2] == "nan"


def test_path_failure_carries_partial_record():
    from ssbelab.implicit import SolverError
    from ssbelab.integrator import PathError

    anti = make_drift(lambda x: -np.asarray(x, float), 1, name="anti",
                      scalar_eval=lambda y: -y)
    sched = schedule_family("constant", h=2.0, c=0.1)
    with pytest.raises(PathError) as excinfo:
        integrate(anti, sched, [1.0], 50, derive_substream(0, 0, 1))
    exc = excinfo.value
    assert isinstance(exc.__cause__, SolverError)
    assert "path 0 (master_seed 0) failed at step 0" in str(exc)
    assert exc.step_index == 0
    assert exc.partial_states.shape == (1, 1)
    assert exc.partial_summary.sup_norm == 1.0


def test_ensemble_failure_identifies_path():
    from ssbelab.integrator import PathError

    anti = make_drift(lambda x: -np.asarray(x, float), 1, name="anti",
                      scalar_eval=lambda y: -y, scalar_deriv=lambda y: np.full_like(np.asarray(y, float), -1.0))
    sched = schedule_family("constant", h=2.0, c=0.1)
    with pytest.raises(PathError) as excinfo:
        integrate_paths_lockstep(anti, sched, [1.0], 20, 1, 99, range(3))
    exc = excinfo.value
    assert exc.step_index == 0
    assert exc.path_index in (0, 1, 2)
    assert "master_seed 99" in str(exc)
    assert len(exc.partial_summaries) == 3


def test_pilot_decay_bound():
    # Long-run pilot: cubic drift with a square-summable schedule parks the
    # path near the origin well inside the 0.05 acceptance threshold.
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    rec = integrate(drift, sched, [1.0], 20_000, derive_substream(7, 0, 1), "summary")
    assert rec.summary.final_norm < 0.05
    assert rec.summary.window_max < 0.05


def test_radial_ensemble_failure_names_the_path():
    from ssbelab.drifts import DriftSpec
    from ssbelab.integrator import PathError

    # Gain t (1 - t^2 / 4) turns outward beyond radius 2, where the radius
    # equation has no root: a path fails at its first step from outside.
    bounded = DriftSpec(
        name="bounded_gain", d=3, dissipative=False, radial=True,
        eval=lambda x: x * (1.0 - np.sum(x * x, axis=-1, keepdims=True) / 4.0),
        radial_gain=lambda t: t * (1.0 - t * t / 4.0),
    )
    sched = schedule_family("constant", h=0.1, c=1.5, d=3, r=3)
    paths = [3, 7, 11, 19, 23]
    first = {}
    for p in paths:
        with pytest.raises(PathError) as excinfo:
            integrate(bounded, sched, [0.5, 0.5, 0.5], 200, derive_substream(5, p, 3), "summary")
        first[p] = excinfo.value.step_index
    step = min(first.values())
    failing = min(p for p in paths if first[p] == step)
    assert failing != paths[0]  # the failing row is not the block's first
    with pytest.raises(PathError) as excinfo:
        integrate_paths_lockstep(bounded, sched, [0.5, 0.5, 0.5], 200, 3, 5, paths)
    exc = excinfo.value
    assert (exc.path_index, exc.step_index) == (failing, step)
    assert exc.__cause__.row_index == paths.index(failing)
    assert len(exc.partial_summaries) == len(paths)
