import contextlib
import math

import numpy as np
import pytest

from ssbelab.diagnostics import (
    CHECKPOINTS,
    BatchDiagnostics,
    DiagnosticState,
    NonFiniteError,
    summarize,
)
from ssbelab.drifts import builtin_drift, make_drift
from ssbelab.gaussian import derive_substream
from ssbelab import integrator
from ssbelab.integrator import (
    CHUNK,
    NOISE_BLOCK,
    PathError,
    integrate,
    integrate_paths_lockstep,
)
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

    def start(self, x0):
        norms = np.linalg.norm(x0, axis=1)
        self.last_norms = norms
        self.sup = norms.copy()
        self.ring[self.ring_len % self.window] = norms
        self.ring_len += 1

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


def _random_steps(rng, m, d, steps, edge=None):
    """(x, xs, u, fro) of ``steps`` random steps: (steps, m, d) arrays and (steps,) norms.

    The three arrays are offset views of one draw, to hold long runs of
    wide blocks in little memory, so x[t] = xs[t + 1] = u[t + 2].  ``edge``
    writes edge values into the draw: ``"zeros"`` +0.0 and -0.0 entries,
    ``"neg_zero_stage"`` a -0.0 stage against a positive shock at every
    even step, ``"tiny"`` subnormal entries and entries whose squares
    underflow, and ``"overflow"`` one state that overflowed to inf, at step
    ``steps - 5`` of row ``m // 2``.
    """
    base = rng.standard_normal((steps + 2, m, d)) * rng.uniform(0.1, 3.0, (steps + 2, 1, 1))
    if edge == "zeros":
        base[::3, ::2] = 0.0
        base[1::3, 1::2] = -0.0
        base[2::5, :, 0] = -0.0
    elif edge == "neg_zero_stage":
        np.abs(base, out=base)
        base[1::2] = -0.0
    elif edge == "tiny":
        base *= 10.0 ** rng.choice([-323.5, -315.0, -308.0, -170.0, -160.0, -155.0, 0.0], base.shape)
    elif edge == "overflow":
        base[steps - 3, m // 2, 0] = np.inf
    return base[2:], base[1:-1], base[:-2], rng.uniform(0.0, 2.0, steps)


# (m, offset, d, steps, window, edge); the 7-path cases with a bound on
# each checkpoint keep the ids they had before m and the offset were added.
# The edge cases fold chunks longer than their window of 7, so the ring
# write wraps.
_FOLD_CASES = [
    pytest.param(m, offset, d, steps, window, None, id=f"{d}-{steps}-{window}"
                 + ("" if (m, offset) == (7, 0) else f"-m{m}{offset:+d}"))
    for d, steps, window in [(1, 1030, 10), (3, 1100, 100), (1, 37, 5), (3, 200, 1000),
                             (1, 10_002, 300)]
    for m in (1, 2, 7, 200)
    for offset in ((-1, 0, 1) if steps > CHECKPOINTS[0] else (0,))
] + [
    pytest.param(m, 0, d, 200, 7, edge, id=f"{d}-200-7-{edge}-m{m}")
    for edge in ("wrap", "zeros", "neg_zero_stage", "tiny", "overflow")
    for d in (1, 3)
    for m in (1, 7)
]

# The failure the "overflow" cases raise: NonFiniteError's step_index,
# row_index and message.
_OVERFLOW = {1: (195, 0, "non-finite state norm: inf"), 7: (195, 3, "non-finite state norm: inf")}


@pytest.mark.parametrize("m, offset, d, steps, window, edge", _FOLD_CASES)
def test_chunked_fold_is_bit_identical_to_per_step(m, offset, d, steps, window, edge):
    # The same steps fed three ways: one ``update`` per step, ``fold`` over
    # random uneven chunks (an empty one among them), and the reference.
    # A chunk bound sits ``offset`` steps after each checkpoint, so a
    # checkpoint's step is a chunk's first, last or next-to-last row. The
    # fold sums a block's rows with np.add.reduce and a lone column
    # (m = 1) with np.cumsum: both must add in step order.  A state of
    # non-finite norm stops both folds at its step, with the steps before
    # it folded; the reference stops there too.
    h = 0.1
    rng = np.random.default_rng(steps + d + m)
    stepwise = BatchDiagnostics(m, d, h, window)
    split = BatchDiagnostics(m, d, h, window)
    reference = _PerStepBatch(m, d, h, window)
    x0 = rng.standard_normal((m, d))
    for acc in (stepwise, split, reference):
        acc.start(x0)
    data = _random_steps(rng, m, d, steps, edge)
    stop = _OVERFLOW[m][0] if edge == "overflow" else steps
    cuts = set(rng.choice(np.arange(1, steps), size=min(steps - 1, 12), replace=False).tolist())
    cuts |= {cn + offset for cn in (10**3, 10**4) if 0 < cn + offset < steps}
    cuts = sorted(cuts)
    half = int(cuts[len(cuts) // 2])
    failures = []

    def feed(a, b):
        for t in range(a, min(b, stop)):
            reference.update(*(arr[t] for arr in data))
        bounds = [a, a] + [int(c) for c in cuts if a < c < b] + [b]
        # As in the step loop, an overflow is not warned about but raised at
        # its step; any other case still fails on a RuntimeWarning.
        quiet = np.errstate(over="ignore", invalid="ignore") if edge == "overflow" else contextlib.nullcontext()
        with quiet:
            try:
                for t in range(a, b):
                    stepwise.update(*(arr[t] for arr in data))
            except NonFiniteError as exc:
                failures.append(exc)
            try:
                for lo, hi in zip(bounds, bounds[1:]):
                    split.fold(*(arr[lo:hi] for arr in data))
            except NonFiniteError as exc:
                failures.append(exc)

    feed(0, half)
    # A summary taken mid-run reads the folded steps and the run goes on from
    # there.  The reprs tell -0.0 from +0.0, which == does not.
    want = repr(reference.summaries(range(m), np.ones(m)))
    assert repr(stepwise.summaries(range(m), np.ones(m))) == want
    assert repr(split.summaries(range(m), np.ones(m))) == want
    feed(half, steps)
    failed = [(e.step_index, e.row_index, str(e)) for e in failures]
    assert failed == ([_OVERFLOW[m]] * 2 if edge == "overflow" else [])
    norms = np.linalg.norm(data[0][stop - 1], axis=1)
    want = reference.summaries(range(m), norms)
    assert repr(stepwise.summaries(range(m), norms)) == repr(want)
    assert repr(split.summaries(range(m), norms)) == repr(want)
    assert stepwise.n == split.n == stop
    assert [c.n for c in want[0].checkpoints] == [n for n in CHECKPOINTS if n <= stop]


@pytest.mark.parametrize("d, state, norm", [
    (1, [-1e300], 1e300),
    (3, [3 * 2.0**700, -4 * 2.0**700, 0.0], 5 * 2.0**700),
])
def test_a_finite_state_past_1e154_keeps_a_finite_norm(d, state, norm):
    # Its squared norm overflows, so the fold read its norm as inf and
    # raised; the norm is now taken again scaled by 2^-600, which is exact,
    # and every other row keeps its bits.
    rng = np.random.default_rng(d)
    x, xs, u, fro = _random_steps(rng, 4, d, 6, None)
    x0 = rng.standard_normal((4, d))
    plain, far = BatchDiagnostics(4, d, 0.1, 8), BatchDiagnostics(4, d, 0.1, 8)
    far_x, far_x0 = x.copy(), x0.copy()
    far_x[2, 1] = far_x0[3] = state
    with np.errstate(over="ignore"):
        plain.start(x0)
        far.start(far_x0)
        plain.fold(x, xs, u, fro)
        far.fold(far_x, xs, u, fro)
    assert far.ring[0, 3] == norm and far.ring[3, 1] == norm and far.sup[1] == far.sup[3] == norm
    rest = np.ones((7, 4), bool)
    rest[0, 3] = rest[3, 1] = False
    assert (far.ring[:7][rest] == plain.ring[:7][rest]).all()
    assert (far.last_norms == plain.last_norms).all() and (far.sums[:, [0, 2]] == plain.sums[:, [0, 2]]).all()


@pytest.mark.parametrize("d, state", [(1, [np.inf]), (3, [1.7e308, -1.7e308, 0.0]), (3, [np.nan, 0.0, 0.0])])
def test_a_state_of_non_finite_norm_still_raises(d, state):
    # A state that is itself inf or NaN, or a finite one whose norm is past
    # the float range, still stops the fold at its step.
    x, xs, u, fro = _random_steps(np.random.default_rng(0), 4, d, 6, None)
    x[4, 2] = state
    diag = BatchDiagnostics(4, d, 0.1, 8)
    diag.start(np.ones((4, d)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as excinfo:
        diag.fold(x, xs, u, fro)
    assert (excinfo.value.step_index, excinfo.value.row_index, diag.n) == (4, 2, 4)
    assert str(excinfo.value) == f"non-finite state norm: {'nan' if np.isnan(state[0]) else 'inf'}"



@pytest.mark.parametrize("r", [1, 3])
def test_lockstep_noise_block_is_each_paths_own_draw(monkeypatch, r):
    # The lockstep engine draws every path into one (k, m, r) block; it must
    # hold what each path's stream gives alone, across a NOISE_BLOCK boundary.
    loop = {}
    monkeypatch.setattr(integrator, "_step_loop", lambda *args: loop.setdefault("draw", args[7]))
    sched = schedule_family("constant", h=0.1, c=1.0, d=2, r=r)
    paths = [0, 5, 9]
    integrate_paths_lockstep(builtin_drift("linear", d=2), sched, [1.0, 1.0], 10, r, 42, paths)
    streams = [derive_substream(42, p, r) for p in paths]
    for k in (NOISE_BLOCK, 5):
        want = np.stack([s.draw_block(k) for s in streams], axis=1)
        got = loop["draw"](k)
        assert got.shape == want.shape == (k, len(paths), r)
        assert (got == want).all()


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
    assert exc.step_index == 101 and 101 % CHUNK != 0
    completed = integrate_paths_lockstep(drift, sched, [1.0], 101, 1, 3, range(3), window=50)
    assert exc.partial_summaries == completed


_LAST_CHECKPOINT_CASES = [
    pytest.param(("cubic", {"d": 2}), ("power", {"c": 1.0, "p": 0.5}), 0.1, [0.5, -1.0], steps,
                 id=f"cubic-{steps}")
    for steps in (1000, 10_000)
] + [
    # 4 h ||x*||^2 overflows to inf and meets ||sigma||_F = 0: the QV bound
    # is NaN, and the summary divides |M| = 0 by 1, as max(1.0, nan) does.
    pytest.param(("linear", {"lam": 1e-12}), ("zero", {}), 10.0, [1.3e154], 1000, id="nan_qv"),
]


@pytest.mark.parametrize("engine", ["integrate", "lockstep"])
@pytest.mark.parametrize("drift, sched, h, zeta, steps", _LAST_CHECKPOINT_CASES)
def test_summary_equals_its_last_checkpoint(engine, drift, sched, h, zeta, steps):
    drift = builtin_drift(drift[0], **drift[1])
    sched = schedule_family(sched[0], h=h, d=drift.d, **sched[1])
    if engine == "integrate":
        summaries = [integrate(drift, sched, zeta, steps, derive_substream(7, p, 1),
                               record_mode="summary").summary for p in range(3)]
    else:
        summaries = integrate_paths_lockstep(drift, sched, zeta, steps, 1, 7, range(3))
    for s in summaries:
        last = s.checkpoints[-1]
        assert last.n == steps
        for name in ("time_avg_sq", "m_over_n", "m_abs_over_qv", "shock_sq_avg", "sup_norm"):
            got, want = getattr(s, name), getattr(last, name)
            assert got == want or (math.isnan(got) and math.isnan(want)), name
