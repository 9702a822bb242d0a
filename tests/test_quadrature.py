import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssbelab.quadrature import CHUNK, QuadratureError, adaptive_simpson


def recursive_simpson(f, a, b, rel_tol=1e-10, abs_floor=1e-300, max_depth=48):
    """The depth-first adaptive Simpson recursion, one scalar interval at a time.

    The reference for ``adaptive_simpson``: the breadth-first rule must
    return its bits on every interval and fail on the subinterval it fails on.
    """
    if not b >= a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0

    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or abs(left + right) < abs_floor:
            return left + right + delta / 15.0
        if depth >= max_depth:
            raise QuadratureError(f"adaptive Simpson failed to converge on [{a:g}, {b:g}]", 0)
        return recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1
        )

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    scale = max(abs(whole), abs_floor)
    return recurse(a, fa, m, fm, b, fb, whole, rel_tol * scale, 0)


def scalar(f):
    """The integrand at one point, as the recursion calls it."""
    return lambda t: float(f(np.asarray(t)))


def test_polynomial_near_exact():
    # Simpson is exact on cubics; the adaptive wrapper should not disturb it.
    val = adaptive_simpson(lambda t: t**3 - 2.0 * t, 0.0, 2.0)
    assert val == pytest.approx(0.0, abs=1e-13)


def test_exponential_cell():
    val = adaptive_simpson(lambda t: np.exp(-2.0 * t), 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-11)


def test_quadratic_average():
    val = adaptive_simpson(lambda t: t * t, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_zero_integrand():
    assert adaptive_simpson(np.zeros_like, 0.0, 5.0) == 0.0


def test_empty_interval():
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 1.0, 0.0)


def test_oscillatory_against_closed_form():
    val = adaptive_simpson(lambda t: np.sin(t) ** 2, 0.0, math.pi, rel_tol=1e-11)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-10)


def spike(t):
    return np.where(t < 0.3141592653589793, 1.0, 0.0)


def test_nonconvergence_raises():
    # A discontinuous spike defeats the depth budget at tight tolerance.
    with pytest.raises(QuadratureError):
        adaptive_simpson(spike, 0.0, 1.0, rel_tol=1e-14, max_depth=8)


def test_nonconvergence_names_the_recursions_interval():
    # Spikes in the second and fourth interval: both rules name the leftmost
    # failing subinterval of the second, and the index says which it was.
    with pytest.raises(QuadratureError) as want:
        recursive_simpson(scalar(spike), 0.0, 1.0, rel_tol=1e-14, max_depth=8)
    a = np.array([1.0, 0.0, 0.5, -1.0])
    with pytest.raises(QuadratureError) as got:
        adaptive_simpson(lambda t: spike(np.abs(t)), a, a + 1.0, rel_tol=1e-14, max_depth=8)
    assert str(got.value) == str(want.value)
    assert got.value.index == 1


@pytest.mark.parametrize("fill", [np.inf, np.nan])
@pytest.mark.parametrize("lo", [0.0, 2.0])
def test_an_interval_failing_everywhere_stays_bounded(fill, lo):
    # Every subinterval fails, so the recursion dives to max_depth on its
    # leftmost path.  The batched rule names the same subinterval after at
    # most CHUNK open subintervals per depth, not 2**depth of them.
    points = [0]

    def f(t):
        points[0] += t.size
        return np.full_like(t, fill)

    with pytest.raises(QuadratureError) as want:
        recursive_simpson(scalar(f), lo, lo + 0.1)
    points[0] = 0
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as got:
            adaptive_simpson(f, lo, lo + 0.1, max_depth=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == str(want.value)
    assert points[0] <= 3 + 2 * CHUNK * (48 + 1)
    assert peak < 16e6


def test_noise_at_every_scale_ends_at_the_evaluation_budget():
    # sin(1e17 t) is noise down to roundoff: subintervals of an ulp or two
    # pass and fail at random, none fails at max_depth, and only the
    # budget of 2 * CHUNK * max_depth evaluations per interval ends the call.
    points = [0]

    def f(t):
        points[0] += t.size
        if points[0] > 10**6:
            raise RuntimeError("no evaluation budget")
        return np.sin(1e17 * t)

    a = np.array([1.0, 2.0])
    with pytest.raises(QuadratureError) as got:
        adaptive_simpson(f, a, a + np.array([0.0, 0.1]))
    budget = 2 * CHUNK * 48
    assert str(got.value) == (
        f"adaptive Simpson gave up on [2, 2.1] after more than {budget} evaluations"
    )
    assert got.value.index == 1
    assert budget < points[0] <= 3 + budget + 2 * CHUNK


INTEGRANDS = {
    "cubic": lambda c: lambda t: ((c * t - 1.0) * t + 2.0) * t - c,
    "exp": lambda c: lambda t: np.exp(-c * t),
    "log": lambda c: lambda t: np.log(t + 1.0 + c),
    "inverse_log": lambda c: lambda t: np.float_power(np.sqrt(c / np.log(t + 3.0)), 2.0),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(INTEGRANDS)),
    c=st.floats(0.1, 5.0),
    cells=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.sampled_from([0.0, 1e-3, 0.1, 0.7, 2.0, 9.0])),
        min_size=1,
        max_size=12,
    ),
    rel_tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_batched_rule_equals_the_recursion(kind, c, cells, rel_tol):
    f = INTEGRANDS[kind](c)
    a = np.array([lo for lo, _ in cells])
    b = np.array([lo + w for lo, w in cells])
    want = []
    for lo, hi in zip(a, b):
        try:
            want.append(recursive_simpson(scalar(f), float(lo), float(hi), rel_tol=rel_tol))
        except QuadratureError as exc:
            want.append(str(exc))
            break
    try:
        got = adaptive_simpson(f, a, b, rel_tol=rel_tol).tolist()
    except QuadratureError as exc:
        got = adaptive_simpson(f, a[: exc.index], b[: exc.index], rel_tol=rel_tol).tolist()
        got.append(str(exc))
    assert got == want
