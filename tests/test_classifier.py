import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from test_schedules import _matrix_source

from ssbelab.classifier import (
    EXP_ZERO,
    FRO_BLOCK,
    _dead,
    _evidence,
    _frobenius_grid,
    _live_range,
    _probes,
    _s_terms,
    _sprime_terms,
    _verdicts,
    classify,
    default_epsilon_grid,
    format_regime_report,
    partial_sum_S,
    partial_sum_Sc,
    partial_sum_Sprime,
    regime_report_records,
)
from ssbelab.normal import ERFC_ZERO
from ssbelab.schedules import (
    ContinuousSigma,
    _power_tail,
    from_sigma_cell_rms,
    from_sigma_sampled,
    schedule_family,
    sigma_family,
    tabulated_schedule,
)

# Frozen from 50-digit arithmetic.
CONST_S_101 = 16.024180647077162193  # 101 * Q(1)
GEO_S_LIMIT = 0.16193634976782665935  # sum Q(e^n), converged by n = 3
SPRIME_CONST = 1.4886881156027396108  # 11 * exp(-2)
SPRIME_POWER = 0.67798591370623317262  # sum (n+1)^{-1} exp(-(n+1)^2/2), N = 1e4


def test_partial_sum_zero_schedule():
    zero = schedule_family("zero", h=1.0)
    ps = partial_sum_S(zero, 1.0, 100)
    assert ps.value == 0.0 and ps.last_term == 0.0 and ps.tail_bound == 0.0
    assert partial_sum_Sprime(zero, 1.0, 100).value == 0.0


def test_partial_sum_constant():
    const = schedule_family("constant", h=1.0, c=1.0)
    ps = partial_sum_S(const, 1.0, 100)
    assert ps.value == pytest.approx(CONST_S_101, rel=1e-13)
    assert ps.tail_bound is None


def test_partial_sum_geometric_converges():
    geo = schedule_family("geometric", h=1.0, c=1.0, rho=math.exp(-1.0))
    ps = partial_sum_S(geo, 1.0, 50)
    assert ps.value == pytest.approx(GEO_S_LIMIT, rel=1e-13)
    assert ps.tail_bound is not None and ps.tail_bound < 1e-100


def test_partial_sum_sprime_examples():
    const = schedule_family("constant", h=1.0, c=1.0)
    assert partial_sum_Sprime(const, 2.0, 10).value == pytest.approx(SPRIME_CONST, rel=1e-13)
    power = schedule_family("power", h=1.0, c=1.0, p=1.0)
    assert partial_sum_Sprime(power, 1.0, 10_000).value == pytest.approx(SPRIME_POWER, rel=1e-12)


def test_epsilon_validation():
    const = schedule_family("constant", h=1.0, c=1.0)
    for fn in (partial_sum_S, partial_sum_Sprime):
        with pytest.raises(ValueError):
            fn(const, 0.0, 10)
        with pytest.raises(ValueError):
            fn(const, -1.0, 10)


def test_monotone_in_epsilon():
    sched = schedule_family("inverse_log", h=1.0, a=1.0, b=2.0)
    values = [partial_sum_S(sched, float(e), 2000).value for e in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    e1=st.floats(0.01, 5.0),
    scale=st.floats(1.1, 4.0),
)
def test_monotonicity_property(e1, scale):
    sched = schedule_family("power", h=1.0, c=2.0, p=0.6)
    lo = partial_sum_S(sched, e1, 500).value
    hi = partial_sum_S(sched, e1 * scale, 500).value
    assert hi <= lo + 1e-15


def test_classify_canonical_families():
    a = classify(schedule_family("power", h=0.1, c=1.0, p=1.0))
    assert a.regime == "A" and a.method == "analytic_L" and a.L == 0.0
    b = classify(schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    assert b.regime == "B" and b.eps_prime == pytest.approx(2.0, abs=0.0)
    c = classify(schedule_family("constant", h=0.1, c=0.3))
    assert c.regime == "C"
    z = classify(schedule_family("zero", h=0.1))
    assert z.regime == "A"


def test_classify_grid_validation():
    sched = schedule_family("zero", h=1.0)
    with pytest.raises(ValueError):
        classify(sched, epsilon_grid=[1.0, 0.5])
    with pytest.raises(ValueError):
        classify(sched, epsilon_grid=[-1.0, 1.0])
    with pytest.raises(ValueError):
        classify(sched, policy="bogus")
    for grid in ([1.0, math.inf], [math.nan], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            classify(sched, epsilon_grid=grid)
    with pytest.raises(ValueError, match="truncation index must be non-negative"):
        classify(sched, n_trunc=-1)
    for bounds in ({"eps_min": math.nan}, {"eps_max": math.inf}, {"eps_min": -math.inf}):
        with pytest.raises(ValueError, match="positive and finite"):
            default_epsilon_grid(**bounds)
    # eps_min = 20 above the default eps_max = 10 failed in classify, naming neither bound.
    with pytest.raises(ValueError, match=r"eps_min <= eps_max, got eps_min = 20.0 and eps_max = 10.0"):
        default_epsilon_grid(eps_min=20.0)
    assert default_epsilon_grid(2.0, 2.0, 1).tolist() == [2.0]


def test_classify_evidence_routes_match_analytic():
    grid = np.geomspace(0.05, 10.0, 13)
    cases = [
        (schedule_family("geometric", h=0.1, c=1.0, rho=0.8), "A"),
        (schedule_family("power", h=0.1, c=0.7, p=1.2), "A"),
        (schedule_family("inverse_log", h=0.1, a=2.0, b=3.0), "B"),
        (schedule_family("constant", h=0.1, c=1.0), "C"),
    ]
    for sched, want in cases:
        for policy in ("s", "sprime"):
            rep = classify(sched, epsilon_grid=grid, policy=policy, n_trunc=50_000)
            assert rep.regime == want, (sched.kind, policy, rep.regime)
            assert rep.agreement is True


def test_classify_evidence_b_brackets_threshold():
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    rep = classify(sched, policy="s", n_trunc=100_000)
    assert rep.regime == "B"
    lo, hi = rep.eps_prime_bracket
    assert lo <= 2.0 <= hi


def test_classify_tabulated_is_honest():
    # A short table with no registered structure gives no divergence
    # signature and no tail bound: the report must say so, not guess.
    rows = [[n, 0.5] for n in range(200)]
    sched = tabulated_schedule(rows, h=1.0)
    rep = classify(sched, n_trunc=199)
    assert rep.regime in ("C", "inconclusive")
    decaying = tabulated_schedule([[n, 1.0 / (n + 1.0)**2] for n in range(500)], h=1.0)
    rep2 = classify(decaying, n_trunc=499)
    assert rep2.regime == "inconclusive"


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 500])
def test_classify_probes_the_norm_trend_on_its_own_grid(rows):
    # Without analytic_L the norm trend is judged on probe indices into the
    # grid classify already holds.  Evaluating the schedule again raised in
    # np.geomspace on a 1-row table and read past a 2-row table.
    sched = tabulated_schedule([[n, 1.0] for n in range(rows)], h=1.0)
    calls = []
    matrix_eval = sched.matrix_eval
    sched.matrix_eval = lambda ns: calls.append(len(ns)) or matrix_eval(ns)
    rep = classify(sched)
    assert rep.regime == "C"
    assert calls == [rows]


def test_continuous_series_equals_cell_rms_series():
    sig = sigma_family("exp_decay", c=1.0, a=1.0)
    direct = partial_sum_Sc(sig, 1.0, 1.0, 200)
    via_schedule = partial_sum_S(from_sigma_cell_rms(sig, 1.0), 1.0, 200)
    assert direct.value == pytest.approx(via_schedule.value, abs=1e-9)
    assert partial_sum_Sc(sigma_family("constant", c=0.0), 1.0, 1.0, 50).value == 0.0


def test_continuous_series_constant_matches_discrete():
    sig = sigma_family("constant", c=1.0)
    val = partial_sum_Sc(sig, 1.0, 1.0, 100).value
    assert val == pytest.approx(CONST_S_101, rel=1e-12)


def test_sc_sandwich_for_monotone_sigma():
    # S - first term <= S_cell <= S, termwise and summed.
    sig = sigma_family("power_decay", c=1.0, p=0.8)
    h = 0.5
    from ssbelab.schedules import from_sigma_sampled

    sampled = from_sigma_sampled(sig, h)
    eps, n = 0.7, 500
    s = partial_sum_S(sampled, eps, n)
    sc = partial_sum_Sc(sig, h, eps, n)
    from ssbelab.normal import tail_q

    first = tail_q(eps / sampled.frobenius_grid([0])[0])
    assert s.value - first <= sc.value + 1e-12
    assert sc.value <= s.value + 1e-12


def test_report_rendering():
    rep = classify(schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    text = format_regime_report(rep, schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    assert "regime: B" in text and "eps'" in text
    rec = regime_report_records(rep)
    assert rec["regime"] == "B" and rec["eps_prime"] == repr(2.0)


def test_default_grid_shape():
    grid = default_epsilon_grid()
    assert len(grid) == 13
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e1)


def _table(d, r, columns, rows=3000, seed=11):
    rng = np.random.default_rng(seed)
    level = 1.0 / np.sqrt(np.log(np.arange(rows) + 3.0))
    values = level[:, None] * rng.uniform(0.5, 1.5, size=(rows, columns))
    return tabulated_schedule(np.column_stack([np.arange(rows), values]), h=0.1, d=d, r=r)


def _matrix_source():
    # No envelope: the cell-rms derivation integrates each entry on its own.
    def fn(t):
        return np.array([[math.sqrt(2.0 / math.log(t + 3.0)), 0.3 * math.exp(-t)],
                         [0.0, 1.0 / (1.0 + t)]])

    return ContinuousSigma(name="matrix", d=2, r=2, fn=fn)


# SHA-256 over every regime_report_records line under the policies auto, s
# and sprime (default grid, truncation n_trunc).  Taken with each evidence
# row in its own fresh arrays (numpy 2.4.6, scipy 1.17.1, x86-64 Linux); the
# shared term buffer must reproduce them.  "power" and "power_p06" were
# re-recorded when an underflowed power tail bound became 5e-324 instead of
# 0.0; no other line of their records changed.  The cell-rms and tabulated
# rows were taken with one adaptive Simpson recursion per cell and one
# np.linalg.norm per index, so they hold the whole-array norm rules to those
# bits.
REPORT_DIGESTS = {
    "power": ("5e30bfc044b70dfe70f26e151ea871b2d9c01f59732e75fdba06db6c3be6e3aa",
              lambda: schedule_family("power", h=0.1, c=1.0, p=1.0), 100_000),
    "power_p06": ("2a970c7de411908a2377e1f99e1607f6407fd0c5175fd2a0fa743a3a25fce678",
                  lambda: schedule_family("power", h=0.1, c=2.0, p=0.6), 100_000),
    "inverse_log": ("fac15ba63f5cb2e9cae1c7d5a1e7bdd066ee5276c220e437a76f796d549db571",
                    lambda: schedule_family("inverse_log", h=0.1, a=2.0, b=2.0), 100_000),
    "constant_0": ("e90acc97f5b87f9500c83cda728aaa667fff801ae4b41a88d3a8c7d23f658167",
                   lambda: schedule_family("constant", h=0.1, c=0.0), 100_000),
    "constant_1": ("207104e81cc63e9e1b5044577b75ee62046e53d9f9e5391508758948559a151b",
                   lambda: schedule_family("constant", h=0.1, c=1.0), 100_000),
    "geometric": ("b8d89dc276e2daa37cae8a841faf78677d6841664d283b29ede71599afd2ed53",
                  lambda: schedule_family("geometric", h=0.1, c=1.0, rho=0.9), 100_000),
    "zero": ("e90acc97f5b87f9500c83cda728aaa667fff801ae4b41a88d3a8c7d23f658167",
             lambda: schedule_family("zero", h=0.1), 100_000),
    "sampled_exp_decay": (
        "c248c6413ab99d25a52c8f486db7ef10539e50facd7d0e46c20dcd796771bcae",
        lambda: from_sigma_sampled(sigma_family("exp_decay", c=1.0, a=1.0), 0.5),
        100_000,
    ),
    "cell_rms_inverse_log_t": (
        "516846fcb85f9bcbd32564ee0abdd855b4892d01ee678dd3096363fca1b01a8f",
        lambda: from_sigma_cell_rms(sigma_family("inverse_log_t", a=2.0, b=3.0), 0.1),
        20_000,
    ),
    "cell_rms_inverse_log_t_d2": (
        "d208c1e4be2ebf04a6856a07617c450a4c31b03177c94fa00adb9f955f01f36e",
        lambda: from_sigma_cell_rms(
            sigma_family("inverse_log_t", d=2, r=2, base=[[2.0, 1.0], [0.5, 1.0]], a=1.5, b=2.0),
            0.25,
        ),
        20_000,
    ),
    "cell_rms_matrix": ("62c12089452508a18755c84e00cf918277b854baa9d993593f6c28453bee4883",
                        lambda: from_sigma_cell_rms(_matrix_source(), 0.1), 300),
    "tabulated_column": ("d5e3733c35280dc02aac621f7f5cfc158613e2faa2bf55822606d8f473106966",
                         lambda: _table(1, 1, 1), 20_000),
    "tabulated_column_d2": ("a5e81466d247c17b57aaac420ea38bd07fa38abec8367c4bcfb3b4b5ac4fea9b",
                            lambda: _table(2, 2, 1), 20_000),
    "tabulated_3x3": ("6e2052618b0bf73df036ffef8bf04c8c16885d5efdb64c0fc8a4b0b4ffb82b62",
                      lambda: _table(3, 3, 9), 20_000),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_regime_report_records_keep_their_bytes(name):
    import hashlib

    digest, build, n_trunc = REPORT_DIGESTS[name]
    sched = build()
    parts = []
    for policy in ("auto", "s", "sprime"):
        rec = regime_report_records(classify(sched, policy=policy, n_trunc=n_trunc))
        parts += [f"{policy}:{k}={v}" for k, v in rec.items()]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, n_trunc", [
    (lambda: schedule_family("power", h=0.1, c=1e-170, p=1.0), 2000),  # c * c underflows
    (lambda: schedule_family("power", h=0.1, c=1e-160, p=1.0), 2000),  # w overflows to inf
    (lambda: schedule_family("power", h=0.1, c=1.0, p=40.0), 100_000),  # (n + 1)^{2p} overflows
    (lambda: from_sigma_sampled(sigma_family("power_decay", c=1e-170, p=1.0), 0.1), 2000),
    (lambda: from_sigma_cell_rms(sigma_family("power_decay", c=1e-170, p=0.6), 0.1), 2000),
], ids=["tiny_c", "small_c", "large_p", "sampled_tiny_c", "cell_rms_tiny_c"])
def test_power_tail_bound_stays_finite_at_extreme_parameters(build, n_trunc):
    sched = build()
    for policy in ("auto", "s", "sprime"):
        rep = classify(sched, policy=policy, n_trunc=n_trunc)
        assert rep.regime == "A"
        for ev in rep.evidence:
            # The last terms underflow to 0; the remainder bound stays finite.
            assert ev.partial.last_term == 0.0
            assert 0.0 <= ev.partial.tail_bound < math.inf
            assert ev.verdict == "finite"
        assert "nan" not in "".join(regime_report_records(rep).values())


@pytest.mark.parametrize("c, p", [(1.0, 1.0), (1e-160, 0.3)])
@pytest.mark.parametrize("kind", ["s", "sprime"])
def test_power_tail_bound_stays_positive_when_the_direct_form_underflows(c, p, kind):
    # Every remaining term is positive, so 0.0 would undercut the remainder.
    assert _power_tail(c, p, 1.0, 0.01, 100_000, kind) > 0.0


def _s_terms_whole_array(fro, eps):
    # The whole-array formula: Q(eps / fro) at every term, inf where fro <= 0.
    x = np.full_like(fro, np.inf)
    with np.errstate(over="ignore"):
        np.divide(eps, fro, out=x, where=fro > 0)
    return 0.5 * erfc(x / math.sqrt(2.0))


def _sprime_terms_whole_array(fro, eps):
    pos = fro > 0
    out = np.zeros_like(fro)
    with np.errstate(under="ignore", over="ignore", divide="ignore"):
        np.multiply(fro, fro, out=out, where=pos)
        np.divide(-0.5 * eps * eps, out, out=out, where=pos)
        np.exp(out, out=out, where=pos)
        np.multiply(fro, out, out=out, where=pos)
    return out


def _ulps(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else 0.0)
    return float(x)


@st.composite
def _norms_and_eps(draw):
    """Norms mixing zeros, denormals, 1e-300..1e3 and values within ulps of the cuts, shuffled."""
    eps = draw(st.floats(1e-3, 1e2))
    cuts = [eps / (z * math.sqrt(2.0)) for z in (ERFC_ZERO, 26.6418)]  # q = eps / fro / sqrt(2)
    cuts += [eps / math.sqrt(-2.0 * t) for t in (EXP_ZERO, -745.1332)]  # t = -eps^2 / (2 fro^2)
    value = st.one_of(
        st.just(0.0),
        st.floats(5e-324, 2.2250738585072014e-308),
        st.floats(-300.0, 3.0).map(lambda e: 10.0**e),
        st.builds(_ulps, st.sampled_from(cuts), st.integers(-4, 4)),
        st.floats(25.0, 28.0).map(lambda z: eps / (z * math.sqrt(2.0))),  # erfc underflowing
    )
    fro = draw(st.lists(value, min_size=1, max_size=300))
    return np.array(draw(st.permutations(fro))), eps


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_norms_and_eps(), dead_every=st.integers(2, 7))
def test_term_kernels_equal_the_whole_array_formulas_bit_for_bit(case, dead_every):
    fro, eps = case
    # Norms that are not positive, NaN among them, at every dead_every-th index.
    with_dead = fro.copy()
    with_dead[::dead_every] = np.resize([0.0, -0.0, -1.0, np.nan], with_dead[::dead_every].size)
    for norms in (fro, with_dead):
        for kernel, oracle in ((_s_terms, _s_terms_whole_array), (_sprime_terms, _sprime_terms_whole_array)):
            got = kernel(norms, eps, np.empty_like(norms), _dead(norms))
            assert np.array_equal(_bits(got), _bits(oracle(norms, eps)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_norms_and_eps(), steps=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=6))
def test_evidence_rows_equal_the_whole_array_sums_bit_for_bit(case, steps):
    # Rows past grid[0] evaluate only the range left open at grid[0].
    fro, eps = case
    grid = np.unique(eps * np.cumprod([1.0] + steps))
    sched = schedule_family("zero", h=1.0)
    n_trunc = fro.size - 1
    # Shuffled, and decreasing as a decaying schedule is, which puts the
    # range's end at a cut.
    for norms in (fro, np.sort(fro)[::-1]):
        for kind, oracle in (("s", _s_terms_whole_array), ("sprime", _sprime_terms_whole_array)):
            outside = np.ones(norms.size, dtype=bool)
            outside[_live_range(norms, grid[0], kind, np.empty_like(norms))] = False
            buf = np.empty_like(norms)
            rows = _evidence(sched, norms, grid, kind, n_trunc, buf, _probes(n_trunc))
            for row, e in zip(rows, grid):
                want = oracle(norms, e)
                assert not _bits(want[outside]).any()
                assert _bits(row.partial.value) == _bits(want.sum())
                assert _bits(row.partial.last_term) == _bits(want[-1])
            assert np.array_equal(_bits(buf), _bits(want))


@st.composite
def _verdict_cases(draw):
    """Decreasing or constant norms over n_trunc + 1 terms, with zeros, and an ascending grid.

    n_trunc below 100 leaves no probes; zeros may land on the probes.
    """
    n_trunc = draw(st.one_of(st.integers(0, 99), st.integers(100, 3000)))
    n = np.arange(n_trunc + 1, dtype=np.float64)
    profile = draw(st.sampled_from(["constant", "inverse_log", "power"]))
    fro = 10.0 ** draw(st.floats(-3.0, 3.0)) * {
        "constant": np.ones_like(n), "inverse_log": 1.0 / np.sqrt(np.log(n + 3.0)), "power": 1.0 / (n + 1.0),
    }[profile]
    zeros = draw(st.lists(st.integers(0, n_trunc), max_size=5))
    zeros += list(_probes(n_trunc)[0][: draw(st.one_of(st.just(0), st.integers(1, 12)))])
    fro[zeros] = 0.0
    steps = draw(st.lists(st.floats(1.0, 10.0), max_size=6))
    grid = np.unique(10.0 ** draw(st.floats(-3.0, 2.0)) * np.cumprod([1.0] + steps))
    return fro, grid, n_trunc


def _verdicts_whole_array(sched, fro, grid, kind, n_trunc):
    # A finite tail bound, else every term at the probes read off the whole
    # array of terms: at or above n^{-1/2} at all of them, or unknown.
    terms = {"s": _s_terms_whole_array, "sprime": _sprime_terms_whole_array}[kind]
    lo = max(100, n_trunc // 100)
    idx = np.unique(np.geomspace(lo, n_trunc, 12).astype(np.int64)) if lo < n_trunc else None
    verdicts = []
    for eps in grid:
        tail = sched.series_tail_bound(eps, n_trunc, kind)
        if tail is not None and math.isfinite(tail):
            verdicts.append("finite")
        elif idx is not None and (terms(fro, eps)[idx] >= 1.0 / np.sqrt(idx.astype(np.float64))).all():
            verdicts.append("infinite")
        else:
            verdicts.append("unknown")
    return verdicts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_verdict_cases())
def test_cross_check_verdicts_equal_the_whole_array_verdicts(case):
    # The cross-check route evaluates the probe terms alone; the evidence
    # rows report the same verdicts next to their sums.
    fro, grid, n_trunc = case
    probes = _probes(n_trunc)
    # No tail bound (constant), and one finite only at the larger eps (inverse_log).
    schedules = (schedule_family("constant", h=0.1, c=1.0), schedule_family("inverse_log", h=0.1, a=2.0, b=2.0))
    for sched in schedules:
        for kind in ("s", "sprime"):
            want = _verdicts_whole_array(sched, fro, grid, kind, n_trunc)
            assert _verdicts(sched, fro, grid, kind, n_trunc, probes) == want
            rows = _evidence(sched, fro, grid, kind, n_trunc, np.empty_like(fro), probes)
            assert [row.verdict for row in rows] == want


def _assembled(verdicts):
    from ssbelab.classifier import EpsilonEvidence, _assemble

    grid = default_epsilon_grid(0.01, 10.0, len(verdicts))
    return _assemble([EpsilonEvidence(float(eps), v, None) for eps, v in zip(grid, verdicts)])


def test_all_infinite_evidence_is_inconclusive():
    # Infinite at every grid eps only puts eps' above the grid, which regime B
    # allows as well as C: inverse_log with L = 5 has eps' = sqrt(10).
    assert _assembled(["infinite"] * 4) == ("inconclusive", None, None)
    sched = schedule_family("inverse_log", h=0.1, a=5.0, b=2.0)
    rep = classify(sched, epsilon_grid=[0.01, 0.1, 1.0], policy="s", n_trunc=2000)
    assert [e.verdict for e in rep.evidence] == ["infinite"] * 3
    assert (rep.regime, rep.method) == ("inconclusive", "empirical_trend")
    assert classify(sched, policy="s", n_trunc=100_000).regime == "B"


def test_a_finite_verdict_below_an_infinite_one_is_inconclusive():
    # The S series shrinks as eps grows, so finite at a smaller eps and
    # infinite at a larger one contradicts itself.
    assert _assembled(["infinite", "finite", "infinite", "finite"]) == ("inconclusive", None, None)
    assert _assembled(["infinite", "unknown", "finite", "finite"])[0] == "B"


def _uniform_table(rows, d=1, seed=31):
    values = np.random.default_rng(seed).uniform(0.1, 0.6, size=(rows, d))
    return tabulated_schedule(np.column_stack([np.arange(rows), values]), h=0.1, d=d, r=1)


_GRID_ROUTES = {
    "zero": lambda: schedule_family("zero", h=0.1, d=2, r=3),
    "constant": lambda: schedule_family("constant", h=0.1, c=1.5),
    "power": lambda: schedule_family("power", h=0.1, c=2.0, p=0.75, d=2, r=2, base=[[1.0, 2.0], [0.5, -1.0]]),
    "geometric": lambda: schedule_family("geometric", h=0.1, c=1.0, rho=0.9995),
    "inverse_log": lambda: schedule_family("inverse_log", h=0.1, a=2.0, b=3.0),
    # Exactly the rows the largest request reaches: classify clamps its truncation to the last.
    "tabulated": lambda: _uniform_table(3 * FRO_BLOCK + 6, d=2),
    "cell_rms_closed_form": lambda: from_sigma_cell_rms(sigma_family("exp_decay", c=1.0, a=1e-3), 0.1),
    "cell_rms_quadrature": lambda: from_sigma_cell_rms(sigma_family("inverse_log_t", a=2.0, b=3.0), 0.1),
    "cell_rms_matrix": lambda: from_sigma_cell_rms(_matrix_source(), 0.1),
    "sampled": lambda: from_sigma_sampled(sigma_family("power_decay", c=1.0, p=0.5), 0.1),
    "sampled_matrix": lambda: from_sigma_sampled(_matrix_source(), 0.1),
}


@pytest.mark.parametrize("n", [0, FRO_BLOCK - 2, FRO_BLOCK - 1, FRO_BLOCK, 3 * FRO_BLOCK + 5])
@pytest.mark.parametrize("route", sorted(_GRID_ROUTES))
def test_the_blocked_norm_grid_equals_one_whole_range_request(route, n):
    # A schedule each: a cell-rms schedule caches the cells of its first request.
    blocked = _frobenius_grid(_GRID_ROUTES[route](), n)
    whole = _GRID_ROUTES[route]().frobenius_grid(np.arange(n + 1))
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("policy", ["auto", "s", "sprime"])
@pytest.mark.parametrize("route", ["inverse_log", "power", "tabulated"])
def test_classify_holds_two_arrays_of_terms(route, policy):
    # The norms and one row buffer of n_trunc + 1 floats each, plus masks and
    # blocks; whole-range requests and index arrays took four arrays' worth.
    # The table's norms at 0.1-0.6 are cut at scattered indices at larger eps.
    n_trunc = 200_000
    sched = {
        "inverse_log": lambda: schedule_family("inverse_log", h=0.1, a=2.0, b=2.0),
        "power": lambda: schedule_family("power", h=0.1, c=1.0, p=0.5),
        "tabulated": lambda: _uniform_table(n_trunc + 1),
    }[route]()
    tracemalloc.start()
    try:
        classify(sched, policy=policy, n_trunc=n_trunc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * (n_trunc + 1)


_TERM_CASES = {
    "empty": (np.empty(0), 1.0),
    "0-d live": (np.asarray(0.7), 1.0),
    "0-d cut": (np.asarray(1e-3), 10.0),
    "0-d dead": (np.asarray(-0.0), 1.0),
    "all cut": (np.array([1e-3, 5e-324, 2e-3, 1e-300]), 10.0),
    "all live": (np.array([0.5, 3.0, 1e3, np.inf, 0.9]), 0.1),
    "cut inside the span": (np.array([1e-3, 0.5, 1e-3, 1e-300, 0.9, 5e-324, 2.0, 1e-3]), 1.0),
    "dead norms": (np.array([0.0, 0.5, -1.0, np.nan, 1e-3, -0.0, 0.9, np.nan, 0.0]), 1.0),
}


@pytest.mark.parametrize("case", sorted(_TERM_CASES))
def test_term_kernels_keep_the_elementwise_bits_at_the_edges(case):
    fro, eps = _TERM_CASES[case]
    for kernel, oracle in ((_s_terms, _s_terms_whole_array), (_sprime_terms, _sprime_terms_whole_array)):
        got = kernel(fro, eps, np.empty_like(fro), _dead(fro))
        want = oracle(fro, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
