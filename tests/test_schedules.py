import math

import numpy as np
import pytest

from ssbelab.quadrature import QuadratureError
from ssbelab.schedules import (
    ContinuousSigma,
    from_sigma_cell_rms,
    from_sigma_sampled,
    log_tail_limit,
    schedule_family,
    sigma_family,
    tabulated_schedule,
)


def test_frobenius_basics():
    zero = schedule_family("zero", h=1.0)
    assert zero.frobenius_grid([0])[0] == 0.0
    const = schedule_family("constant", h=1.0, c=3.0)
    assert const.frobenius_grid([5])[0] == 3.0
    ones = schedule_family("constant", h=1.0, c=2.0, d=2, r=2,
                           base=np.ones((2, 2)))
    # Base is normalised to unit Frobenius norm, envelope carries the scale.
    assert ones.frobenius_grid([0])[0] == pytest.approx(2.0)
    assert np.allclose(ones.sigma(0), np.full((2, 2), 1.0))


def test_power_family_values():
    p = schedule_family("power", h=0.5, c=1.0, p=1.0)
    assert p.frobenius_grid([0])[0] == 1.0
    assert p.frobenius_grid([3])[0] == pytest.approx(0.25)


def test_sampled_derivation():
    sig = sigma_family("exp_decay", c=1.0, a=1.0)
    sched = from_sigma_sampled(sig, 1.0)
    for n in range(4):
        assert sched.frobenius_grid([n])[0] == pytest.approx(math.exp(-n))
    const = from_sigma_sampled(sigma_family("constant", c=2.0), 0.5)
    assert const.frobenius_grid([7])[0] == pytest.approx(2.0)
    inv = from_sigma_sampled(
        ContinuousSigma(name="inv", d=1, r=1, fn=lambda t: np.array([[1.0 / (1.0 + t)]])),
        0.5,
    )
    assert inv.frobenius_grid([2])[0] == pytest.approx(0.5)


def test_cell_rms_exponential_cell():
    sig = sigma_family("exp_decay", c=1.0, a=1.0)
    sched = from_sigma_cell_rms(sig, 1.0)
    assert sched.frobenius_grid([0])[0] == pytest.approx(0.65751985398289963, rel=1e-12)


def test_cell_rms_linear_ramp():
    ramp = ContinuousSigma(
        name="ramp",
        d=1,
        r=1,
        fn=lambda t: np.array([[t]]),
        envelope=lambda t: np.asarray(t, dtype=np.float64),
    )
    sched = from_sigma_cell_rms(ramp, 1.0)
    assert sched.frobenius_grid([0])[0] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-9)


def test_cell_rms_constant():
    sched = from_sigma_cell_rms(sigma_family("constant", c=1.5), 0.25)
    for n in (0, 3, 11):
        assert sched.frobenius_grid([n])[0] == pytest.approx(1.5)


def test_antiderivative_matches_quadrature():
    sig = sigma_family("power_decay", c=1.3, p=0.8)
    exact = from_sigma_cell_rms(sig, 0.7)
    # Strip the registered antiderivative to force the quadrature route.
    blind = ContinuousSigma(name="blind", d=1, r=1, fn=sig.fn, envelope=sig.envelope)
    quad = from_sigma_cell_rms(blind, 0.7, rel_tol=1e-10)
    for n in (0, 1, 5, 20):
        assert quad.frobenius_grid([n])[0] == pytest.approx(exact.frobenius_grid([n])[0], rel=1e-9)


def test_quadrature_failure_names_cell():
    def nasty(t):
        return np.asarray(1.0 if t < 0.5 else 0.0)

    sched = from_sigma_cell_rms(
        ContinuousSigma(name="nasty", d=1, r=1, fn=lambda t: np.array([[float(nasty(t))]]),
                        envelope=lambda t: np.asarray(nasty(t), dtype=np.float64)),
        1.0,
        rel_tol=1e-13,
    )
    with pytest.raises(QuadratureError, match="cell n=0"):
        sched.frobenius_grid([0])[0]


def test_monotone_sandwich_termwise():
    # For non-increasing squared norms the cell value is wedged between
    # consecutive sampled values.
    for sig, h in (
        (sigma_family("exp_decay", c=1.0, a=0.7), 0.5),
        (sigma_family("power_decay", c=1.0, p=1.0), 1.0),
    ):
        sampled = from_sigma_sampled(sig, h)
        cell = from_sigma_cell_rms(sig, h)
        ns = np.arange(200)
        f_s = sampled.frobenius_grid(ns)
        f_c = cell.frobenius_grid(ns)
        assert (f_s[1:] <= f_c[:-1] + 1e-12).all()
        assert (f_c[:-1] <= f_s[:-1] + 1e-12).all()


def test_log_tail_limit_analytic():
    invlog = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    rep = log_tail_limit(invlog)
    assert rep.method == "analytic" and rep.L == 2.0
    assert log_tail_limit(schedule_family("power", h=1.0, c=1.0, p=1.0)).L == 0.0
    assert math.isinf(log_tail_limit(schedule_family("constant", h=1.0, c=0.5)).L)


def test_log_tail_limit_empirical_converged():
    # Same inverse-log law but presented as a bare table-like evaluator.
    raw = tabulated_like_invlog(a=2.0, b=2.0)
    rep = log_tail_limit(raw)
    assert rep.method == "empirical"
    assert rep.trend == "converged"
    assert rep.L == pytest.approx(2.0, rel=0.05)


def tabulated_like_invlog(a, b):
    from ssbelab.schedules import NoiseSchedule

    return NoiseSchedule(
        kind="opaque",
        d=1,
        r=1,
        h=1.0,
        matrix_eval=lambda n: np.array([[math.sqrt(a / math.log(n + b))]]),
    )


def test_log_tail_limit_empirical_diverging():
    from ssbelab.schedules import NoiseSchedule

    growing = NoiseSchedule(
        kind="opaque",
        d=1,
        r=1,
        h=1.0,
        matrix_eval=lambda n: np.array([[1.0 + 0.001 * n**0.25]]),
    )
    rep = log_tail_limit(growing, probe_indices=np.unique(np.geomspace(2, 10**5, 30).astype(int)))
    assert rep.trend == "diverging" and math.isinf(rep.L)


def test_log_tail_probe_validation():
    sched = tabulated_like_invlog(1.0, 2.0)
    with pytest.raises(ValueError):
        log_tail_limit(sched, probe_indices=[2, 10, 100, 1000, 5000])  # largest < 1e4
    with pytest.raises(ValueError):
        log_tail_limit(sched, probe_indices=[1, 10, 100, 10**4, 10**5])  # starts below 2


def test_tabulated_roundtrip(tmp_path):
    rows = "\n".join(f"{n},{0.5 ** n}" for n in range(6))
    path = tmp_path / "sched.csv"
    path.write_text(rows + "\n")
    sched = tabulated_schedule(str(path), h=0.5)
    assert sched.frobenius_grid([3])[0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        sched.sigma(6)


def test_tabulated_matrix_rows():
    table = [[0, 1.0, 0.0, 0.0, 1.0], [1, 0.5, 0.0, 0.0, 0.5]]
    sched = tabulated_schedule(table, h=1.0, d=2, r=2)
    assert np.allclose(sched.sigma(1), [[0.5, 0.0], [0.0, 0.5]])
    assert sched.frobenius_grid([0])[0] == pytest.approx(math.sqrt(2.0))


def test_family_validation():
    with pytest.raises(ValueError):
        schedule_family("power", h=1.0, c=1.0, p=-1.0)
    with pytest.raises(ValueError):
        schedule_family("inverse_log", h=1.0, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        schedule_family("geometric", h=1.0, c=1.0, rho=1.0)
    with pytest.raises(ValueError):
        schedule_family("nope", h=1.0)
    with pytest.raises(ValueError):
        schedule_family("constant", h=0.0, c=1.0)


def test_tail_bounds_are_true_bounds():
    # Compare each family's remainder bound with a brute-force continuation
    # of the series far past the truncation point.
    from ssbelab.classifier import partial_sum_S, partial_sum_Sprime

    cases = [
        schedule_family("geometric", h=1.0, c=1.0, rho=0.8),
        schedule_family("power", h=1.0, c=1.0, p=0.7),
        schedule_family("power", h=1.0, c=1.0, p=1.5),
        schedule_family("inverse_log", h=1.0, a=0.5, b=2.0),
    ]
    for sched in cases:
        for fn, kind in ((partial_sum_S, "s"), (partial_sum_Sprime, "sprime")):
            eps = 2.0
            near = fn(sched, eps, 500)
            far = fn(sched, eps, 200_000)
            bound = sched.series_tail_bound(eps, 500, kind)
            actual_tail = far.value - near.value
            assert bound is not None and math.isfinite(bound)
            assert actual_tail <= bound + 1e-15, (sched.kind, kind)
