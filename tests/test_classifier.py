import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssbelab.classifier import (
    classify,
    default_epsilon_grid,
    format_regime_report,
    partial_sum_S,
    partial_sum_Sc,
    partial_sum_Sprime,
    regime_report_records,
)
from ssbelab.schedules import (
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


# SHA-256 over every regime_report_records line under the policies auto, s
# and sprime (default grid, n_trunc = 1e5).  Taken with each evidence row in
# its own fresh arrays (numpy 2.4.6, scipy 1.17.1, x86-64 Linux); the shared
# term buffer must reproduce them.  "power" and "power_p06" were re-recorded
# when an underflowed power tail bound became 5e-324 instead of 0.0; no other
# line of their records changed.
REPORT_DIGESTS = {
    "power": ("5e30bfc044b70dfe70f26e151ea871b2d9c01f59732e75fdba06db6c3be6e3aa",
              lambda: schedule_family("power", h=0.1, c=1.0, p=1.0)),
    "power_p06": ("2a970c7de411908a2377e1f99e1607f6407fd0c5175fd2a0fa743a3a25fce678",
                  lambda: schedule_family("power", h=0.1, c=2.0, p=0.6)),
    "inverse_log": ("fac15ba63f5cb2e9cae1c7d5a1e7bdd066ee5276c220e437a76f796d549db571",
                    lambda: schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)),
    "constant_0": ("e90acc97f5b87f9500c83cda728aaa667fff801ae4b41a88d3a8c7d23f658167",
                   lambda: schedule_family("constant", h=0.1, c=0.0)),
    "constant_1": ("207104e81cc63e9e1b5044577b75ee62046e53d9f9e5391508758948559a151b",
                   lambda: schedule_family("constant", h=0.1, c=1.0)),
    "geometric": ("b8d89dc276e2daa37cae8a841faf78677d6841664d283b29ede71599afd2ed53",
                  lambda: schedule_family("geometric", h=0.1, c=1.0, rho=0.9)),
    "zero": ("e90acc97f5b87f9500c83cda728aaa667fff801ae4b41a88d3a8c7d23f658167",
             lambda: schedule_family("zero", h=0.1)),
    "sampled_exp_decay": (
        "c248c6413ab99d25a52c8f486db7ef10539e50facd7d0e46c20dcd796771bcae",
        lambda: from_sigma_sampled(sigma_family("exp_decay", c=1.0, a=1.0), 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_regime_report_records_keep_their_bytes(name):
    import hashlib

    digest, build = REPORT_DIGESTS[name]
    sched = build()
    parts = []
    for policy in ("auto", "s", "sprime"):
        rec = regime_report_records(classify(sched, policy=policy))
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
    assert _power_tail(c, p, 1.0, 1.0, 0.01, 100_000, kind) > 0.0
