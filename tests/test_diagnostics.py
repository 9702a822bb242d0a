import math

import numpy as np
import pytest

from ssbelab.diagnostics import (
    CHECKPOINTS,
    BatchDiagnostics,
    DiagnosticState,
    summarize,
)
from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.gaussian import derive_substream
from ssbelab.integrator import PathError, integrate, integrate_paths_lockstep
from ssbelab.schedules import schedule_family, tabulated_schedule


def _state(window=10, h=1.0, d=1):
    s = DiagnosticState(d=d, h=h, window=window)
    s.start(np.zeros(d))
    return s


def test_zero_noise_martingale_stays_zero():
    s = _state()
    for n in range(5):
        s.update(np.array([0.5**n]), np.array([0.5**n]), np.zeros(1), 0.0)
    summary = summarize(s, path_index=0, final_norm=0.5**4)
    assert summary.m_over_n == 0.0 and summary.m_abs_over_qv == 0.0


def test_single_step_martingale_increment():
    # d = r = 1, x* = 2, sigma = 0.5, xi = 1, h = 1: increment 2*2*0.5*1 = 2,
    # quadratic-variation bound 4 h ||x*||^2 ||sigma||^2 = 4.
    s = DiagnosticState(d=1, h=1.0, window=4)
    s.start(np.array([2.0]))
    u = math.sqrt(1.0) * 0.5 * 1.0
    s.update(np.array([2.0 + u]), np.array([2.0]), np.array([u]), 0.5)
    summary = summarize(s, path_index=0, final_norm=2.0 + u)
    assert summary.m_over_n == pytest.approx(2.0)
    assert summary.m_abs_over_qv == pytest.approx(2.0 / (4.0 * 1.0 * 4.0 * 0.25))


def test_running_extremes_and_window():
    s = DiagnosticState(d=1, h=1.0, window=3)
    s.start(np.array([1.0]))
    for v in (2.0, 0.5, 3.0, 0.25, 0.75):
        s.update(np.array([v]), np.array([v]), np.zeros(1), 0.0)
    summary = summarize(s, path_index=0, final_norm=0.75)
    assert summary.sup_norm == 3.0
    assert (summary.window_min, summary.window_max) == (0.25, 3.0)


def test_shock_average_tracks_frobenius():
    sched = schedule_family("constant", h=0.5, c=0.8, d=2, r=3)
    stream = derive_substream(3, 0, 3)
    eps_drift = builtin_drift("linear", lam=1e-12, d=2)
    rec = integrate(eps_drift, sched, [0.0, 0.0], 100_000, stream, "summary")
    # E ||sigma xi||^2 equals the squared Frobenius norm.
    assert rec.summary.shock_sq_avg == pytest.approx(0.64, rel=0.03)


def test_summary_fields_and_checkpoints():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=1.0)
    rec = integrate(drift, sched, [1.0], 1500, derive_substream(11, 0, 1), "summary")
    s = rec.summary
    assert s.sup_norm >= s.final_norm
    assert s.window_min <= s.window_max <= s.sup_norm
    assert [c.n for c in s.checkpoints] == [1000]
    assert s.checkpoints[0].time_avg_sq > 0


def test_martingale_lln_trend_on_bounded_path():
    drift = builtin_drift("linear", lam=1.0)
    sched = schedule_family("inverse_log", h=0.1, a=2.0, b=2.0)
    rec = integrate(drift, sched, [1.0], 100_000, derive_substream(13, 2, 1), "summary")
    cps = rec.summary.checkpoints
    assert [c.n for c in cps] == [10**3, 10**4, 10**5]
    m_over_n = [abs(c.m_over_n) for c in cps]
    assert m_over_n[2] < m_over_n[0]
    ratios = [c.m_abs_over_qv for c in cps]
    assert ratios[2] < ratios[0]


def test_shock_square_average_vanishes_with_schedule():
    drift = builtin_drift("cubic")
    sched = schedule_family("power", h=0.1, c=1.0, p=0.6)
    rec = integrate(drift, sched, [1.0], 100_000, derive_substream(4, 1, 1), "summary")
    shocks = [c.shock_sq_avg for c in rec.summary.checkpoints]
    assert shocks[0] > shocks[1] > shocks[2]


def test_summarize_matches_state():
    s = _state(window=4)
    for v in (1.0, 2.0, 3.0):
        s.update(np.array([v]), np.array([v]), np.zeros(1), 0.0)
    summary = summarize(s, path_index=7, final_norm=3.0)
    assert summary.path_index == 7
    assert summary.sup_norm == 3.0
    assert summary.time_avg_sq == pytest.approx((1 + 4 + 9) / 3)


class _PerStepBatch(BatchDiagnostics):
    """Reference fold: the block statistics advanced one step at a time."""

    def update(self, x_new, x_star_prev, u_new, fro_prev):
        self.n += 1
        norms = np.linalg.norm(x_new, axis=1)
        np.maximum(self.sup, norms, out=self.sup)
        self.ring[self.ring_len % self.window] = norms
        self.ring_len += 1
        self.sum_sq += norms * norms
        self.M += 2.0 * np.einsum("ij,ij->i", x_star_prev, u_new)
        xs_sq = np.einsum("ij,ij->i", x_star_prev, x_star_prev)
        self.QV += 4.0 * self.h * xs_sq * fro_prev * fro_prev
        self.shock_sq += np.einsum("ij,ij->i", u_new, u_new) / self.h
        if self.n in CHECKPOINTS:
            self.snapshots.append(
                (
                    self.n,
                    {
                        "time_avg_sq": self.sum_sq / self.n,
                        "m_over_n": self.M / self.n,
                        "m_abs_over_qv": np.abs(self.M) / np.maximum(1.0, self.QV),
                        "shock_sq_avg": self.shock_sq / self.n,
                        "sup_norm": self.sup.copy(),
                    },
                )
            )


def _feed(accs, rng, m, d, steps):
    for _ in range(steps):
        x = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0)
        xs = rng.standard_normal((m, d))
        u = 0.3 * rng.standard_normal((m, d))
        fro = float(rng.uniform(0.0, 2.0))
        for acc in accs:
            acc.update(x, xs, u, fro)
    return x


@pytest.mark.parametrize(
    "d, steps, window",
    [(1, 1030, 10), (3, 1100, 100), (1, 37, 5), (3, 200, 1000)],
)
def test_chunked_fold_is_bit_identical_to_per_step(d, steps, window):
    assert steps % BatchDiagnostics.CHUNK != 0
    m, h = 7, 0.1
    rng = np.random.default_rng(steps + d)
    chunked = BatchDiagnostics(m, d, h, window)
    reference = _PerStepBatch(m, d, h, window)
    x0 = rng.standard_normal((m, d))
    chunked.start(x0)
    reference.start(x0)
    half = steps // 2
    x = _feed((chunked, reference), rng, m, d, half)
    # A summary taken mid-chunk flushes first and the run goes on from there.
    assert chunked.summaries(range(m), np.ones(m)) == reference.summaries(range(m), np.ones(m))
    x = _feed((chunked, reference), rng, m, d, steps - half)
    norms = np.linalg.norm(x, axis=1)
    got = chunked.summaries(range(m), norms)
    assert got == reference.summaries(range(m), norms)
    assert chunked.n == steps
    assert [c.n for c in got[0].checkpoints] == [n for n in CHECKPOINTS if n <= steps]


def test_lockstep_failure_mid_chunk_keeps_completed_steps():
    # Dissipative up to |x| = 5, anti-dissipative beyond: the stage has no
    # root once a shock throws the state out.
    drift = make_drift(
        lambda x: np.where(np.abs(np.asarray(x, float)) <= 5.0, x, -np.asarray(x, float)),
        1,
        name="breaks_beyond_5",
    )
    table = np.column_stack([np.arange(200), np.full(200, 0.1)])
    table[100, 1] = 1e4  # sigma(100) sets X(101) far outside the dissipative zone
    sched = tabulated_schedule(table, h=0.1)
    with pytest.raises(PathError) as excinfo:
        integrate_paths_lockstep(drift, sched, [1.0], 200, 1, 3, range(3), window=50)
    exc = excinfo.value
    assert exc.step_index == 101 and 101 % BatchDiagnostics.CHUNK != 0
    completed = integrate_paths_lockstep(drift, sched, [1.0], 101, 1, 3, range(3), window=50)
    assert exc.partial_summaries == completed
