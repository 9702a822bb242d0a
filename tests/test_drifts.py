import dataclasses
import math

import numpy as np
import pytest

from ssbelab.drifts import DriftSpec, builtin_drift, make_drift


def test_cubic_value():
    cubic = builtin_drift("cubic")
    assert cubic(np.array([1.0]))[0] == 2.0


def test_saturating_value():
    sat = builtin_drift("saturating", c=1.0)
    assert sat(np.array([2.0]))[0] == pytest.approx(0.4)


def test_linear_componentwise_value():
    lin = builtin_drift("linear", lam=1.0, d=2)
    assert np.allclose(lin(np.array([1.0, 1.0])), [1.0, 1.0])


def test_linear_matrix_eval_matches_minus_Ax():
    rng = np.random.default_rng(0)
    A = np.array([[-1.0, 0.3], [-0.2, -2.0]])
    drift = builtin_drift("linear", A=A)
    for _ in range(50):
        x = rng.standard_normal(2)
        assert np.abs(drift(x) - (-A @ x)).max() < 1e-15
    assert drift.affine
    assert np.array_equal(drift.affine_matrix, A)


def test_linear_matrix_requires_stability():
    with pytest.raises(ValueError):
        builtin_drift("linear", A=np.array([[1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_linear_matrix_must_be_finite(bad):
    # Checked before eigvals, which fails on it with a LinAlgError message.
    with pytest.raises(ValueError, match="linear drift needs a finite A"):
        builtin_drift("linear", A=np.array([[bad, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("params", [{"lam": lam, "d": d} for lam in (5e-324, 1.0, 1.7e308) for d in (1, 3)]
                         + [{"A": [[-5e-324]]}, {"A": [[-1.0, 0.0], [0.0, -5e-324]]}])
def test_a_stable_linear_drift_declares_every_flag_at_any_scale(params):
    # The symmetric part -A/2 - A'/2 rounded 5e-324 / 2 to 0.0, so A = [[-5e-324]]
    # declared no flag although <x, -Ax> = 5e-324 x^2 > 0.
    drift = builtin_drift("linear", **params)
    assert drift.dissipative and drift.uniform_mean_reverting and drift.strong_mean_reverting


def test_a_triangular_matrix_reads_its_eigenvalues_from_its_diagonal():
    # eigvals returned 0 for the tiny entry, so each stable A below was rejected as unstable.
    drift = builtin_drift("linear", A=np.diag([-1e300, -1e-300]))
    assert drift.dissipative and drift.uniform_mean_reverting and drift.strong_mean_reverting
    for A in ([[-1.7e308, 0.0], [0.0, -5e-324]], [[-1e300, 1.0], [0.0, -1e-300]], [[-1e300, 0.0], [7.0, -1e-300]]):
        assert builtin_drift("linear", A=A).affine
    with pytest.raises(ValueError, match=r"^linear drift requires all eigenvalues of A in Re < 0$"):
        builtin_drift("linear", A=[[1.0, 2.0], [-3.0, 0.5]])


def test_the_dissipativity_of_a_normal_range_matrix_is_its_halved_symmetric_part():
    # Only an A with an entry that halving rounds is scaled: every other A keeps the
    # sign test on -A/2 - A'/2, here over scales 1e-300 to 1e300 and symmetric parts
    # within rounding of singular.
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(600):
        d = int(rng.integers(1, 5))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s = q @ np.diag(np.append(rng.choice([-1e-16, 0.0, 1e-16]), rng.random(d - 1))) @ q.T
        k = rng.standard_normal((d, d))
        A = (k - k.T - s) * 10.0 ** rng.uniform(-300, 300)
        if not (np.linalg.eigvals(A).real < 0).all() or abs(A).min() < 2.0**-1021:
            continue
        want = bool(np.linalg.eigvalsh(-0.5 * A - 0.5 * A.T).min() > 0)
        assert builtin_drift("linear", A=A).dissipative is want
        seen.add(want)
    assert seen == {True, False}


def test_flag_hierarchy_enforced():
    with pytest.raises(ValueError):
        DriftSpec(name="bad", d=1, eval=lambda x: x, dissipative=False, uniform_mean_reverting=True)
    with pytest.raises(ValueError):
        DriftSpec(
            name="bad",
            d=1,
            eval=lambda x: x,
            uniform_mean_reverting=False,
            strong_mean_reverting=True,
        )


def test_builtin_flags():
    assert builtin_drift("cubic").strong_mean_reverting
    arctan = builtin_drift("arctan")
    assert arctan.uniform_mean_reverting and not arctan.strong_mean_reverting
    sat = builtin_drift("saturating")
    assert sat.dissipative and not sat.uniform_mean_reverting


def test_each_drift_declares_its_step_bound():
    # The stage y + h f(y) = x has one root while 1 + h f' > 0.  The
    # saturating gain's slope c (1 - t^2) / (1 + t^2)^2 falls to -c/8 at
    # t = sqrt(3), so its bound 8 / c is where 1 + h g' first touches 0.
    for c in (0.5, 1.0, 10.0):
        for d in (1, 3):
            sat = builtin_drift("saturating", c=c, d=d)
            assert sat.h_max == 8.0 / c
        t = np.append(np.linspace(0.0, 10.0, 100_001), math.sqrt(3.0))
        slack = 1.0 + (8.0 / c) * c * (1.0 - t * t) / (1.0 + t * t) ** 2
        assert slack.min() > -1e-15 and abs(slack[-1]) < 1e-15
    for name, params in (("linear", {}), ("linear", {"A": [[-1.0]]}), ("cubic", {"d": 2}), ("arctan", {})):
        assert builtin_drift(name, **params).h_max == math.inf
    # A user drift's bound is taken on trust, like its flags: inf unless set.
    assert make_drift(np.tanh, 1).h_max == math.inf
    assert dataclasses.replace(make_drift(np.tanh, 1), h_max=2.0).h_max == 2.0


def test_unknown_family_and_bad_params():
    with pytest.raises(ValueError):
        builtin_drift("quintic")
    with pytest.raises(ValueError):
        builtin_drift("linear", lam=-1.0)
    with pytest.raises(ValueError):
        builtin_drift("saturating", c=0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite lam"):
            builtin_drift("linear", lam=value)
        with pytest.raises(ValueError, match="finite c"):
            builtin_drift("saturating", c=value)


def test_batched_eval_shapes():
    for drift in (builtin_drift("cubic", d=3), builtin_drift("saturating", d=3),
                  builtin_drift("linear", A=-np.eye(3))):
        batch = np.ones((5, 4, 3))
        out = drift(batch)
        assert out.shape == (5, 4, 3)
        single = drift(np.ones(3))
        assert np.allclose(out[0, 0], single)


def test_jacobians_match_finite_differences():
    # Only linear declares a Jacobian: the affine reference route of
    # acceptance criterion 3 runs Newton on it.  Structured drifts never
    # reach the generic Newton route, so they declare none.
    rng = np.random.default_rng(3)
    for name, kw in (("cubic", {"d": 3}), ("arctan", {"d": 3}), ("saturating", {"d": 3})):
        assert builtin_drift(name, **kw).jac is None
    for drift in (builtin_drift("linear", A=np.array([[-2.0, 1.0], [0.0, -1.0]])),
                  builtin_drift("linear", lam=0.5, d=2)):
        x = rng.standard_normal(drift.d)
        J = drift.jac(x)
        eps = 1e-6
        for j in range(drift.d):
            xp = x.copy()
            xp[j] += eps
            col = (drift(xp) - drift(x)) / eps
            assert np.abs(J[:, j] - col).max() < 1e-5


def _shell_min_inner(drift, radius, samples, rng):
    """Sampled minimum of <x, f(x)> over the shell ||x|| = radius."""
    if drift.d == 1:
        pts = np.array([[-radius], [radius]])
    else:
        g = rng.standard_normal((samples, drift.d))
        pts = radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    return float(np.sum(pts * drift(pts), axis=-1).min())


def test_strong_families_have_growing_ratio():
    # The inner product over the norm must climb for strongly
    # mean-reverting families on shells 10, 100, 1000.
    rng = np.random.default_rng(1)
    for drift in (builtin_drift("cubic", d=2), builtin_drift("linear", lam=0.5, d=2)):
        ratios = [
            _shell_min_inner(drift, radius, 128, rng) / radius
            for radius in (10.0, 100.0, 1000.0)
        ]
        assert ratios[0] < ratios[1] < ratios[2]


def test_arctan_ratio_bounded():
    arctan = builtin_drift("arctan")
    rng = np.random.default_rng(1)
    ratios = [_shell_min_inner(arctan, rad, 8, rng) / rad for rad in (10.0, 100.0, 1000.0)]
    assert max(ratios) < math.pi / 2.0


@pytest.mark.parametrize("name, params, unread", [
    ("linear", {"c": 1.0}, "['c']"),
    ("linear", {"A": -np.eye(2), "lam": 2.0}, "['lam']"),
    ("linear", {"A": -np.eye(2), "d": 2}, "['d']"),
    ("cubic", {"lam": 1.0}, "['lam']"),
    ("cubic", {"c": 1.0, "A": -np.eye(1)}, "['A', 'c']"),
    ("arctan", {"lam": 1.0}, "['lam']"),
    ("saturating", {"lam": 1.0, "d": 3}, "['lam']"),
])
def test_a_family_rejects_a_parameter_it_does_not_read(name, params, unread):
    # Every family read its own keys and rejected the rest in a branch of its
    # own; the one rule now runs before any family is built.
    with pytest.raises(ValueError) as excinfo:
        builtin_drift(name, **params)
    assert str(excinfo.value) == f"unexpected {name} params: {unread}"


def test_an_unknown_family_is_named_before_its_parameters():
    with pytest.raises(ValueError, match="unknown drift family: 'quintic'"):
        builtin_drift("quintic", lam=1.0)

