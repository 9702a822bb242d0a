"""Standard normal CDF and tail probabilities for the series classifiers.

The classifiers evaluate 1 - Phi(eps / s) where the schedule value s tends
to zero, so the argument grows without bound and the tail must be usable in
log space far past the double-precision underflow point.  Three surfaces:

``phi_cdf``     Phi(x), relative error ~1e-15 in the central range.
``tail_q``      Q(x) = 1 - Phi(x), computed from erfc so there is no
                cancellation for large x; underflows to 0 beyond x ~ 38.
``log_tail_q``  log Q(x), finite for every finite x.  Central range via
                erfc; for x >= 8 via the Laplace continued fraction

                    Q(x) = phi(x) / (x + 1/(x + 2/(x + 3/(x + ...))))

                evaluated in log space, exact in the exponent out to
                x = 200 and beyond.

``tail_q_grid`` is the vectorised bulk form used for partial sums: terms
that underflow contribute 0, which is the correct limit convention for the
series (Phi(inf) = 1).  It calls erfc only on the span from the first
argument below ``ERFC_ZERO`` = 27 to the last, and writes 0.0 outside it.
The skip is exact, not an approximation: scipy's erfc (cephes) returns
exactly 0.0 once z*z exceeds MAXLOG, that is for every z > 26.6418, so each
skipped term, and each cut one inside the span, is the value erfc returns.
Under a decaying schedule most terms of a long partial sum are such zeros.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import erfc as _erfc_arr

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_CF_SWITCH = 8.0
_CF_DEPTH = 64
# erfc(z) == 0.0 exactly for every z > 26.6418; the tests pin this.
ERFC_ZERO = 27.0


def _check_finite_arg(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("normal tail argument is NaN")
    return x


def phi_cdf(x: float) -> float:
    """Phi(x) with the conventions Phi(-inf) = 0 and Phi(inf) = 1."""
    x = _check_finite_arg(x)
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    return 0.5 * math.erfc(-x / _SQRT2)


def tail_q(x: float) -> float:
    """Q(x) = 1 - Phi(x) without cancellation for large x."""
    x = _check_finite_arg(x)
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    if x > 36.0:
        # erfc underflows near here; exponent still exact in log space.
        lq = log_tail_q(x)
        return math.exp(lq) if lq > -745.0 else 0.0
    return 0.5 * math.erfc(x / _SQRT2)


def _log_q_continued_fraction(x: float) -> float:
    # Laplace: Q(x) = phi(x) * cf, cf = 1/(x + 1/(x + 2/(x + ...))).
    tail = 0.0
    for k in range(_CF_DEPTH, 0, -1):
        tail = k / (x + tail)
    cf = 1.0 / (x + tail)
    return -0.5 * x * x - _LOG_SQRT_2PI + math.log(cf)


def log_tail_q(x: float) -> float:
    """log(1 - Phi(x)), finite for all finite x."""
    x = _check_finite_arg(x)
    if math.isinf(x):
        if x < 0:
            return 0.0
        raise ValueError("log tail of +inf is -inf; pass finite x")
    if x >= _CF_SWITCH:
        return _log_q_continued_fraction(x)
    return math.log(0.5 * math.erfc(x / _SQRT2))


def tail_q_grid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorised Q over an array; entries may be +inf (term becomes 0).

    Bulk summation form: values below the underflow threshold come back as
    exactly 0.0, which matches the series' zero-sigma convention.  erfc is
    evaluated only on the ``live_span`` of x / sqrt(2) < ``ERFC_ZERO``;
    every other entry is 0.0, the value erfc returns there, so the result is
    bit for bit the whole-array one.  With ``out`` (which may be ``x``
    itself; 1-d or C-contiguous) every step writes into it.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("normal tail argument is NaN")
    return tail_q_unchecked(x, out)


def tail_q_unchecked(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``tail_q_grid`` of a float64 array the caller knows holds no NaN, unchecked."""
    q = np.divide(x, _SQRT2, out=np.empty(np.shape(x)) if out is None else out)
    flat = q.reshape(-1)
    live = flat[live_span(flat < ERFC_ZERO, flat)]
    np.multiply(0.5, _erfc_arr(live, out=live), out=live)
    return q


def live_span(live: np.ndarray, out: np.ndarray) -> slice:
    """The slice from the first True of the 1-d mask ``live`` to the last (empty when none
    is), with 0.0 written to ``out`` outside it.  ``find`` and ``rfind`` on the mask's bytes
    stop at the first True from each end (``argmax`` on a reversed view copies it first)."""
    data = live.tobytes()
    first = data.find(1)
    span = slice(first, data.rfind(1) + 1) if first >= 0 else slice(0, 0)
    out[: span.start] = 0.0
    out[span.stop :] = 0.0
    return span
