import math

import numpy as np
import pytest

from ssbelab.drifts import DriftSpec, builtin_drift


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


def test_unknown_family_and_bad_params():
    with pytest.raises(ValueError):
        builtin_drift("quintic")
    with pytest.raises(ValueError):
        builtin_drift("linear", lam=-1.0)
    with pytest.raises(ValueError):
        builtin_drift("saturating", c=0.0)


def test_batched_eval_shapes():
    for drift in (builtin_drift("cubic", d=3), builtin_drift("saturating", d=3),
                  builtin_drift("linear", A=-np.eye(3))):
        batch = np.ones((5, 4, 3))
        out = drift(batch)
        assert out.shape == (5, 4, 3)
        single = drift(np.ones(3))
        assert np.allclose(out[0, 0], single)


def test_jacobians_match_finite_differences():
    # Only linear(A) declares a Jacobian: the affine reference route of
    # acceptance criterion 3 runs Newton on it.  Structured drifts never
    # reach the generic Newton route, so they declare none.
    rng = np.random.default_rng(3)
    for name, kw in (("cubic", {"d": 3}), ("arctan", {"d": 3}), ("saturating", {"d": 3}),
                     ("linear", {"lam": 0.5, "d": 2})):
        assert builtin_drift(name, **kw).jac is None
    for drift in (builtin_drift("linear", A=np.array([[-2.0, 1.0], [0.0, -1.0]])),):
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
