"""Adaptive Simpson quadrature with interval bisection, over arrays of intervals."""

from __future__ import annotations

from typing import Callable

import numpy as np

# The halves of failing subintervals are refined this many at a time,
# leftmost first.  An interval that fails on every pass then costs about
# max_depth * CHUNK evaluations and a few MB, not 2**max_depth of each.
# Past 2 * CHUNK * max_depth evaluations an interval is given up on: an
# integrand that is noise down to roundoff never reaches max_depth on a
# failing subinterval and would otherwise never end.
CHUNK = 256


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be met.

    ``index`` is the flat position, among the intervals passed in, of the
    interval whose subinterval failed.
    """

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    rel_tol: float = 1e-10,
    abs_floor: float = 1e-300,
    max_depth: int = 48,
) -> np.ndarray:
    """Integrate f over each interval [a, b] to the requested relative tolerance.

    ``a`` and ``b`` broadcast to the result's shape; ``f`` maps an array of
    points to an array of values.  Each subinterval whose Richardson
    estimate disagrees with its coarse Simpson value is bisected; the
    accepted value carries the (S2 - S1)/15 correction.  ``abs_floor`` keeps
    identically-zero integrands from bisecting forever.

    The rule runs breadth-first: each pass evaluates f once, at the
    midpoints of every open subinterval, and bisects only those that fail.
    Accepted values are summed bottom-up as left + right, the order of the
    depth-first recursion, so each interval gets that recursion's bits.  A
    subinterval still failing at depth ``max_depth`` raises for the first
    such one in input order, then left to right: the one the recursion
    meets first.  An interval on which the bisection has evaluated f more
    than 2 * CHUNK * max_depth times raises too.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    if not (b >= a).all():
        raise ValueError("integration bounds must satisfy a <= b")
    out = np.zeros(a.shape)  # an empty interval integrates to 0 without evaluating f
    roots = np.flatnonzero(b > a)
    work = (a.ravel(), b.ravel(), np.zeros(out.size, dtype=np.int64))
    a, b = a.ravel()[roots], b.ravel()[roots]
    # inf - inf is nan, which fails the test: non-finite values end in
    # QuadratureError, not in numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        fa, fb = np.split(f(np.concatenate([a, b])), 2)
        m = 0.5 * (a + b)
        fm = f(m)
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        tol = rel_tol * np.maximum(np.abs(whole), abs_floor)
        out.flat[roots] = _refine(f, (a, fa, m, fm, b, fb, whole, tol), roots, 0, abs_floor,
                                  max_depth, work)
    return out


def _refine(f, interval, owner, depth, abs_floor, max_depth, work) -> np.ndarray:
    """Accepted value of each subinterval (a, fa, m, fm, b, fb, whole, tol).

    ``owner`` is the input interval of each; ``depth`` their bisection depth.
    ``work`` holds the input intervals' bounds and the evaluations of f the
    bisection has spent on each, indexed by owner.  The halves of failing
    subintervals are refined CHUNK at a time, in order, so the first to
    raise is the leftmost failing one.
    """
    a, fa, m, fm, b, fb, whole, tol = interval
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
    a_in, b_in, spent = work
    np.add.at(spent, owner, 2)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    both = left + right
    delta = both - whole
    value = both + delta / 15.0
    split = np.flatnonzero(~((np.abs(delta) <= 15.0 * tol) | (np.abs(both) < abs_floor)))
    if split.size == 0:
        return value
    if depth >= max_depth:
        j = split[0]
        raise QuadratureError(
            f"adaptive Simpson failed to converge on [{a[j]:g}, {b[j]:g}]", int(owner[j])
        )
    budget = 2 * CHUNK * max_depth
    over = np.flatnonzero(spent[owner[split]] > budget)
    if over.size:
        k = int(owner[split[over[0]]])
        raise QuadratureError(
            f"adaptive Simpson gave up on [{a_in[k]:g}, {b_in[k]:g}] after more than {budget} "
            "evaluations", k,
        )

    def halves(lo, hi):
        # Half i is the left (even i) or the right (odd i) half of split[i // 2].
        return np.column_stack([lo[split], hi[split]]).ravel()

    children = (
        halves(a, m), halves(fa, fm), halves(lm, rm), halves(flm, frm),
        halves(m, b), halves(fm, fb), halves(left, right), np.repeat(tol[split] / 2.0, 2),
    )
    owner = np.repeat(owner[split], 2)
    sub = np.concatenate([
        _refine(f, tuple(x[i:i + CHUNK] for x in children), owner[i:i + CHUNK], depth + 1,
                abs_floor, max_depth, work)
        for i in range(0, owner.size, CHUNK)
    ])
    value[split] = sub[0::2] + sub[1::2]
    return value
