import math

import numpy as np
import pytest
from scipy.special import erfc

from oracle_tables import LOG_TAIL_TABLE, PHI_TABLE

from ssbelab.classifier import EXP_ZERO
from ssbelab.normal import (
    ERFC_ZERO,
    log_tail_q,
    phi_cdf,
    tail_q,
    tail_q_grid,
)


@pytest.mark.parametrize("x,expected", PHI_TABLE)
def test_cdf_oracle_table(x, expected):
    assert phi_cdf(x) == pytest.approx(expected, rel=1e-13)


def test_cdf_limits_and_center():
    assert phi_cdf(0.0) == 0.5
    assert phi_cdf(float("inf")) == 1.0
    assert phi_cdf(float("-inf")) == 0.0


def test_nan_rejected():
    for fn in (phi_cdf, tail_q, log_tail_q):
        with pytest.raises(ValueError):
            fn(float("nan"))


def test_tail_symmetry():
    for x in np.linspace(-8, 8, 33):
        assert tail_q(x) + tail_q(-x) == pytest.approx(1.0, abs=1e-14)


def test_tail_at_zero_and_one():
    assert tail_q(0.0) == 0.5
    assert tail_q(1.0) == pytest.approx(0.15865525393145705141, rel=1e-14)


def test_tail_mills_bracket_at_8():
    # First Mills correction is 1 - 1/64 + ...; the normalised ratio sits
    # just below one.
    ratio = tail_q(8.0) / (math.exp(-32.0) / (8.0 * math.sqrt(2 * math.pi)))
    assert 0.97 < ratio < 1.0


@pytest.mark.parametrize("x,log_q_exact", LOG_TAIL_TABLE)
def test_log_tail_far_range(x, log_q_exact):
    got = log_tail_q(x)
    assert got == pytest.approx(log_q_exact, abs=1e-6)
    asym = -0.5 * x * x - math.log(x) - 0.5 * math.log(2 * math.pi)
    assert abs(got - asym) < 1e-2


def test_log_tail_continuous_at_switch():
    lo = log_tail_q(7.999999)
    hi = log_tail_q(8.000001)
    assert abs(lo - hi) < 1e-4
    assert hi < lo


def test_log_tail_never_minus_inf():
    for x in (10.0, 50.0, 150.0, 200.0):
        v = log_tail_q(x)
        assert math.isfinite(v)


def test_tail_monotone_on_grid():
    xs = np.linspace(-10.0, 40.0, 10_000)
    qs = np.array([tail_q(float(x)) for x in xs])
    assert (np.diff(qs) <= 0).all()
    # Strict decrease wherever doubles can resolve it: left of x ~ -7.6 the
    # derivative falls below one ulp of 1.0 on this grid spacing, and the
    # far right underflows to 0.
    interior = (xs > -7.4) & (xs < 35.0)
    assert (np.diff(qs[interior]) < 0).all()


def test_mills_normalisation_converges():
    # The ratio Q(x) / (x^{-1} e^{-x^2/2}) tends to 1/sqrt(2 pi) from below.
    target = 1.0 / math.sqrt(2.0 * math.pi)
    last = 0.0
    for x in (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0):
        ratio = math.exp(log_tail_q(x) + 0.5 * x * x + math.log(x))
        assert last < ratio < target
        last = ratio
    assert target - last < 1e-3


def test_mills_envelope_is_upper_bound():
    # The envelope the schedules' tail bounds are built from.
    from ssbelab.schedules import _mills_env

    for x in (0.3, 1.0, 2.0, 5.0, 8.0, 12.0):
        assert _mills_env(x) >= tail_q(x)
    assert _mills_env(0.0) == math.inf


def test_grid_form_matches_scalar():
    xs = np.array([-3.0, 0.0, 1.5, 8.0, np.inf])
    grid = tail_q_grid(xs)
    for x, q in zip(xs, grid):
        assert q == pytest.approx(tail_q(float(x)), rel=1e-13, abs=1e-300)
    with pytest.raises(ValueError):
        tail_q_grid(np.array([1.0, np.nan]))


@pytest.mark.parametrize("x", [
    np.empty(0),
    np.asarray(1.5),
    np.asarray(60.0),
    np.array([40.0, np.inf, 1e300, 38.2]),  # every term cut
    np.array([-np.inf, -3.0, 0.0, 1.0, 30.0]),  # every term live
    np.array([50.0, 1.0, 40.0, np.inf, 1e300, 2.0, 60.0]),  # cut terms inside the span
    np.array([[1.0, 50.0, np.inf], [60.0, 2.0, 38.0]]),
], ids=["empty", "0-d live", "0-d cut", "all cut", "all live", "cut inside", "2-d"])
def test_grid_form_equals_the_elementwise_formula_bit_for_bit(x):
    want = 0.5 * erfc(x / math.sqrt(2.0))
    got = tail_q_grid(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    inplace = x.copy()
    assert tail_q_grid(inplace, out=inplace) is inplace
    assert inplace.tobytes() == want.tobytes()


def test_underflow_cuts_are_exact():
    # The term kernels write 0.0 past these cuts instead of calling erfc or
    # exp; a library whose underflow point moves past a cut fails here.
    z = np.concatenate([np.linspace(ERFC_ZERO, 40.0, 500_001), np.geomspace(40.0, 1e308, 100_001), [np.inf]])
    assert not erfc(z).any()
    assert erfc(26.6) > 0.0
    t = np.concatenate([np.linspace(EXP_ZERO, -800.0, 500_001), -np.geomspace(800.0, 1e308, 100_001), [-np.inf]])
    assert not np.exp(t).any()
    assert np.exp(-745.0) > 0.0
