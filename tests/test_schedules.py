import math
from functools import partial

import numpy as np
import pytest

from ssbelab.quadrature import QuadratureError
from ssbelab.schedules import (
    ContinuousSigma,
    NoiseSchedule,
    _invlog_tail,
    _power_tail,
    _zero_tail,
    from_sigma_cell_rms,
    from_sigma_sampled,
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
        return np.where(np.asarray(t) < 0.5, 1.0, 0.0)

    sched = from_sigma_cell_rms(
        ContinuousSigma(name="nasty", d=1, r=1, fn=lambda t: np.array([[float(nasty(t))]]),
                        envelope=lambda t: np.asarray(nasty(t), dtype=np.float64)),
        1.0,
        rel_tol=1e-13,
    )
    with pytest.raises(QuadratureError, match="cell n=0"):
        sched.frobenius_grid([0])[0]
    # Of the failing cells of one request, the lowest is named.
    steps = lambda t: np.where((np.asarray(t) > 3.5) & (np.asarray(t) < 5.5), 1.0, 0.0)
    sched = from_sigma_cell_rms(
        ContinuousSigma(name="steps", d=1, r=1, fn=lambda t: np.array([[float(steps(t))]]),
                        envelope=steps),
        1.0,
        rel_tol=1e-13,
    )
    with pytest.raises(QuadratureError, match="cell n=3: "):
        sched.frobenius_grid([5, 4, 3])


def test_quadrature_failure_names_cell_and_entry():
    # Entry (0,1) fails on cells 3 and 5, entry (1,0) on cells 0 and 1.
    # Entries are averaged in (i, j) order over every missing cell of the
    # request, so the lowest failing cell of entry (0,1) is named.
    def step(lo, hi, t):
        return 1.0 if lo < t < hi else 0.0

    def fn(t):
        return np.array([[1.0 / (1.0 + t), step(3.5, 5.5, t)], [step(0.5, 1.5, t), 0.0]])

    sched = from_sigma_cell_rms(ContinuousSigma(name="steps", d=2, r=2, fn=fn), 1.0, rel_tol=1e-13)
    with pytest.raises(QuadratureError, match=r"cell n=3, entry \(0,1\): "):
        sched.frobenius_grid([5, 4, 3, 1])
    with pytest.raises(QuadratureError, match=r"cell n=0, entry \(1,0\): "):
        sched.frobenius_grid([2, 0])


def _matrix_source():
    def fn(t):
        return np.array([[math.sqrt(2.0 / math.log(t + 3.0)), 0.3 * math.exp(-t)],
                         [0.0, 1.0 / (1.0 + t)]])

    return ContinuousSigma(name="matrix", d=2, r=2, fn=fn)


@pytest.mark.parametrize("source, entries", [
    (lambda: sigma_family("inverse_log_t", a=2.0, b=3.0), 1),
    (_matrix_source, 4),
], ids=["envelope", "matrix"])
def test_cell_rms_makes_one_quadrature_call_per_entry(monkeypatch, source, entries):
    import ssbelab.schedules as schedules

    calls = []
    real = schedules.adaptive_simpson

    def counted(f, a, b, **kw):
        calls.append(len(a))
        return real(f, a, b, **kw)

    monkeypatch.setattr(schedules, "adaptive_simpson", counted)
    sched = from_sigma_cell_rms(source(), 0.1)
    batch = sched.frobenius_grid(np.arange(12))
    assert calls == [12] * entries
    sched.frobenius_grid([11, 3, 0])
    assert calls == [12] * entries  # every cell is cached: no call
    sched.frobenius_grid(np.arange(10, 15))
    assert calls == [12] * entries + [3] * entries  # only the missing cells 12, 13, 14
    # A cell has the same bits in a batch as alone.
    lone = from_sigma_cell_rms(source(), 0.1)
    assert np.concatenate([lone.frobenius_grid([n]) for n in range(12)]).tobytes() == batch.tobytes()


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


def test_tabulated_roundtrip(tmp_path):
    rows = "\n".join(f"{n},{0.5 ** n}" for n in range(6))
    path = tmp_path / "sched.csv"
    path.write_text(rows + "\n")
    sched = tabulated_schedule(str(path), h=0.5)
    assert sched.frobenius_grid([3])[0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        sched.sigma(6)


def test_tabulated_file_skips_blank_and_comment_lines_and_keeps_every_bit(tmp_path):
    values = np.random.default_rng(3).lognormal(sigma=30.0, size=(60, 4))
    lines = [f"{n}," + ",".join(repr(float(v)) for v in row) for n, row in enumerate(values)]
    lines[10:10] = ["", "# a comment", "   # an indented comment"]
    path = tmp_path / "sched.csv"
    path.write_text("# n,v11,v12,v21,v22\n\n" + "\n".join(lines) + "\n")
    sched = tabulated_schedule(path, h=0.1, d=2, r=2)
    want = np.array([[float(v) for v in line.split(",")[1:]] for line in lines if line[:1].isdigit()])
    assert np.array_equal(sched.matrix_eval(np.arange(60)).reshape(60, 4).view(np.int64), want.view(np.int64))


def test_tabulated_matrix_rows():
    table = [[0, 1.0, 0.0, 0.0, 1.0], [1, 0.5, 0.0, 0.0, 0.5]]
    sched = tabulated_schedule(table, h=1.0, d=2, r=2)
    assert np.allclose(sched.sigma(1), [[0.5, 0.0], [0.0, 0.5]])
    assert sched.frobenius_grid([0])[0] == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("d, columns", [(1, 1), (2, 1), (2, 4)])
def test_tabulated_rejects_a_non_finite_row(bad, d, columns):
    table = np.column_stack([np.arange(2000), np.full((2000, columns), 0.1)])
    table[70, columns] = bad
    table[900, 1] = bad
    with pytest.raises(ValueError, match=r"row n=70 is not finite"):
        tabulated_schedule(table, h=0.1, d=d, r=d)


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
    with pytest.raises(ValueError, match=r"unexpected schedule params: \['c'\]"):
        schedule_family("zero", h=1.0, c=0.5)
    for name, params in (("constant", {"c": 1.0}), ("power", {"c": 1.0, "p": 1.0}),
                         ("geometric", {"c": 1.0, "rho": 0.5}), ("inverse_log", {"a": 1.0, "b": 2.0})):
        for key in params:
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} schedule needs"):
                    schedule_family(name, h=1.0, **{**params, key: value})
    # h is checked before the tail bound's exp(-a h), which overflows at h = -1000.
    for h in (0.0, -1000.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            from_sigma_sampled(sigma_family("exp_decay", a=1.0), h)
    for name, params in (("exp_decay", {"c": 1.0, "a": 1.0}), ("constant", {"c": 1.0}),
                         ("power_decay", {"c": 1.0, "p": 1.0}), ("inverse_log_t", {"a": 1.0, "b": 3.0})):
        for key in params:
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} sigma needs a finite {key}"):
                    sigma_family(name, **{**params, key: value})


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


def test_matrix_shocks_keep_their_bytes():
    # SHA-256 of the shocks and norms of a full 3 x 3 table, for a block of
    # paths and for a lone path; taken with one np.linalg.norm per index
    # (numpy 2.4.6, x86-64 Linux), so the stacked norm rule must reproduce it.
    import hashlib

    rng = np.random.default_rng(5)
    rows = 400
    table = np.column_stack([np.arange(rows), rng.uniform(-1.0, 1.0, size=(rows, 9))])
    sched = tabulated_schedule(table, h=0.1, d=3, r=3)
    digest = hashlib.sha256()
    for xi in (rng.standard_normal((300, 5, 3)), rng.standard_normal((300, 3))):
        U, fro = sched.shocks(xi, 7)
        digest.update(U.tobytes() + fro.tobytes())
    assert digest.hexdigest() == "b0938015ec1d4b4d6a64147af324afa0a185c0549fd547e84a9829c78ecaf894"


@pytest.mark.parametrize("derive", [from_sigma_sampled, from_sigma_cell_rms])
def test_an_underflowed_geometric_ratio_keeps_a_true_tail_bound(derive):
    # rho = exp(-a h) is 0.0 once a h > 745: math.log(0.0) raised "math domain error".
    from ssbelab.classifier import classify

    sched = derive(sigma_family("exp_decay", c=1.0, a=800.0), 1.0)
    for kind in ("s", "sprime"):
        assert sched.series_tail_bound(0.01, 10, kind) == 5e-324
    report = classify(sched, n_trunc=1000)
    assert report.regime == "A"
    assert {ev.partial.tail_bound for ev in report.evidence} == {5e-324}


def test_a_missing_required_parameter_is_named():
    # Each raised a bare KeyError, which escaped the command line.
    for name, key in (("constant", "c"), ("power", "p"), ("geometric", "rho"), ("inverse_log", "a")):
        with pytest.raises(ValueError, match=f"^{name} schedule needs {key}$"):
            schedule_family(name, h=1.0)
    for name, key in (("constant", "c"), ("power_decay", "p"), ("inverse_log_t", "a")):
        with pytest.raises(ValueError, match=f"^{name} sigma needs {key}$"):
            sigma_family(name)


@pytest.mark.parametrize("derive", [from_sigma_sampled, from_sigma_cell_rms])
def test_a_geometric_ratio_rounded_to_one_claims_no_tail_bound(derive):
    # rho = exp(-a h) is 1.0 once a h < 1.1e-16: 1 / (1 - rho) raised ZeroDivisionError.
    from ssbelab.classifier import classify

    sched = derive(sigma_family("exp_decay", c=1.0, a=1e-300), 0.1)
    for kind in ("s", "sprime"):
        assert sched.series_tail_bound(0.01, 10, kind) == math.inf
    assert classify(sched, n_trunc=1000).regime == "A"


def _written_out(name, *, h, d=1, r=1, base=None, **params):
    """The families that schedule_family now takes from sigma_family at t = n, as written out before."""
    if name == "zero":
        env, L, tail, prm = lambda ns: np.zeros_like(np.asarray(ns, dtype=np.float64)), 0.0, _zero_tail, {}
    elif name == "constant":
        c = params["c"]
        env = lambda ns: np.full_like(np.asarray(ns, dtype=np.float64), c)
        L, tail, prm = math.inf if c > 0 else 0.0, _zero_tail if c == 0.0 else None, {"c": c}
    elif name == "power":
        c, p = params.get("c", 1.0), params["p"]
        env = lambda ns: c * (np.asarray(ns, dtype=np.float64) + 1.0) ** -p
        L, tail, prm = 0.0, partial(_power_tail, c, p, 1.0), {"c": c, "p": p}
    else:
        a, b = params["a"], params.get("b", 2.0)
        env = lambda ns: np.sqrt(a / np.log(np.asarray(ns, dtype=np.float64) + b))
        L, tail, prm = a, partial(_invlog_tail, a, b, 1.0), {"a": a, "b": b}
    return NoiseSchedule(kind=name, d=d, r=r, h=h, params=prm, base=base, envelope=env,
                         analytic_L=L, tail=tail)


@pytest.mark.parametrize("name, params", [
    ("zero", {}), ("constant", {"c": 0.0}), ("constant", {"c": 1.7}),
    ("power", {"p": 1.0}), ("power", {"c": 0.3, "p": 0.6}), ("power", {"c": 2.0, "p": 2.5}),
    ("inverse_log", {"a": 2.0}), ("inverse_log", {"a": 0.5, "b": 1.5}),
    ("inverse_log", {"a": 3.0, "b": 9.0}),
])
def test_the_families_at_t_equals_n_keep_the_bits_of_their_written_out_forms(name, params):
    new, old = (build(name, h=0.1, **params) for build in (schedule_family, _written_out))
    assert (new.kind, new.params, new.analytic_L) == (old.kind, old.params, old.analytic_L)
    ns = np.concatenate([np.arange(200_001), [10**9, 2**53 - 1]])
    assert np.array_equal(new.frobenius_grid(ns).view(np.int64), old.frobenius_grid(ns).view(np.int64))
    for eps in (0.5, 2.0, 5.0):
        for kind in ("s", "sprime"):
            got, want = (s.series_tail_bound(eps, 1000, kind) for s in (new, old))
            assert repr(got) == repr(want), (eps, kind)
    xi = np.random.default_rng(11).standard_normal((300, 5, 3))
    # This base, scaled to unit norm, moves when scaled again: the schedule
    # must normalise the caller's base once.
    for base in (None, np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 3))):
        new, old = (build(name, h=0.1, d=3, r=3, base=base, **params)
                    for build in (schedule_family, _written_out))
        for got, want in zip(new.shocks(xi, 7), old.shocks(xi, 7)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p", [0.25, 0.5, 2.0])
def test_a_power_decay_cell_past_the_double_range_is_zero(p):
    # n h = inf from n = 2 on, where the cell form was inf * 0.0 = nan for p < 0.5.
    fro = from_sigma_cell_rms(sigma_family("power_decay", p=p), 1e308).frobenius_grid(np.arange(5))
    assert np.isfinite(fro).all() and (fro[2:] == 0.0).all()
