"""Deterministic noise schedules n -> sigma(n) and continuous sources.

A schedule is the d x r matrix sequence feeding the shock term
sqrt(h) sigma(n) xi(n+1).  Closed-form families carry analytic metadata so
that regime decisions can be exact where the underlying series criteria
are analytic:

* ``analytic_L``      the limit of ||sigma(n)||_F^2 log n (0, finite, or
                      inf); the norm vanishes exactly when it is finite,
* ``tail``            a rigorous upper bound tail(eps, n, kind) on the
                      remainder of either classifier series past a
                      truncation index, built from the Mills envelope
                      Q(x) <= e^{-x^2/2}/(x sqrt(2 pi)).

The branch that builds a continuous family attaches both; each discrete
family but geometric is a continuous one at t = n.
Families keep a unit-Frobenius base matrix so the scalar envelope s(n) is
exactly the Frobenius norm.  A tabulated schedule carries none of this
metadata; the classifier judges it from plain partial sums and its own
empirical probe of the norms.

Continuous sources Sigma(t) produce schedules two ways: pointwise sampling
sigma(n) = Sigma(n h), or cell root-mean-square values
[sigma(n)]_ij = sqrt(mean of Sigma_ij^2 over [nh, (n+1)h]) via a registered
exact cell integral when the family has one, else adaptive quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as _gamma_fn, gammaincc

from ssbelab.quadrature import QuadratureError, adaptive_simpson

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Tail majorants.  All bounds assume the envelope is non-increasing in n so
# the series terms are eventually decreasing and integral/ratio comparisons
# apply.  ``kind`` selects the Gaussian-tail series ('s') or its exponential
# surrogate ('sprime').


def _mills_env(x: float) -> float:
    return math.exp(-0.5 * x * x) / (x * _SQRT_2PI) if x > 0 else math.inf


_TINY = 5e-324  # smallest positive double; floor that keeps bounds true upper bounds


def _geometric_tail(c: float, rho: float, eps: float, n: int, kind: str) -> float:
    # fro(j) = c rho^j; successive term ratios are <= rho for both series.
    # Work with log x to survive the enormous arguments reached at large n.
    # rho = exp(-a h) underflows to 0.0 once a h > 745, where log x is +inf,
    # and rounds to 1.0 once a h < 1.1e-16, where no bound is claimed.
    if rho == 1.0:
        return math.inf
    log_x = math.log(eps / c) - (n + 1) * math.log(rho) if rho > 0.0 else math.inf
    if log_x > 350.0:
        return _TINY / (1.0 - rho)
    x_next = math.exp(log_x)
    if kind == "s":
        first = _mills_env(x_next)
    else:
        first = c * rho ** (n + 1) * math.exp(-0.5 * x_next * x_next)
    return max(first, _TINY) / (1.0 - rho)


def _power_tail(c: float, p: float, u: float, eps: float, n: int, kind: str) -> float:
    try:
        bound = _power_tail_direct(c, p, u, eps, n, kind)
    except (ZeroDivisionError, OverflowError):
        bound = math.nan
    if not math.isnan(bound):
        # An underflowed 0 is below the true remainder; the floor keeps it a bound.
        return max(bound, _TINY)
    # The direct form left the double range (c * c underflows, or the
    # exponent w overflows).  If the first remaining exponent w(n + 1) is
    # itself past it, every remaining term is below exp(-1e307) and the
    # smallest positive double is still a true upper bound; otherwise no
    # bound is claimed.
    log_gam = 2.0 * (math.log(eps) - math.log(c)) - math.log(2.0)
    log_w = log_gam + 2.0 * p * math.log(u * (n + 1) + 1.0)
    return _TINY if log_w > 707.0 else math.inf


def _power_tail_direct(c: float, p: float, u: float, eps: float, n: int, kind: str):
    # fro(j) = c (u j + 1)^{-p}; substitution w = (eps^2/2c^2)(u s + 1)^{2p}
    # turns the integral comparison into an upper incomplete gamma.
    gam = eps * eps / (2.0 * c * c)
    w_n = gam * (u * n + 1.0) ** (2.0 * p)
    alpha = 1.0 / (2.0 * p) - 0.5
    if alpha > 0.0:
        gamma_upper = float(gammaincc(alpha, w_n)) * float(_gamma_fn(alpha))
        if kind == "s":
            return gam ** (-1.0 / (2.0 * p)) / (4.0 * p * u * math.sqrt(math.pi)) * gamma_upper
        return c * gam ** (0.5 - 1.0 / (2.0 * p)) / (2.0 * p * u) * gamma_upper
    # p >= 1: the exponent w_j is convex in j, so increments are bounded
    # below by the first one and the terms are geometrically dominated.
    w1 = gam * (u * (n + 1) + 1.0) ** (2.0 * p)
    w2 = gam * (u * (n + 2) + 1.0) ** (2.0 * p)
    delta = w2 - w1
    if delta <= 0.0:
        return math.inf
    x1 = math.sqrt(2.0 * w1)
    first = _mills_env(x1) if kind == "s" else c * (u * (n + 1) + 1.0) ** -p * math.exp(-w1)
    return first / -math.expm1(-delta)


def _invlog_tail(a: float, b: float, u: float, eps: float, n: int, kind: str) -> float:
    # fro(j)^2 = a / log(u j + b); terms decay like (u j + b)^{-beta} with
    # beta = eps^2 / (2a); summable (with explicit bound) only for beta > 1.
    beta = eps * eps / (2.0 * a)
    if beta <= 1.0:
        return math.inf
    power_sum = (u * n + b) ** (1.0 - beta) / (u * (beta - 1.0))
    if kind == "s":
        x_next = eps * math.sqrt(math.log(u * (n + 1) + b) / a)
        return power_sum / (x_next * _SQRT_2PI)
    fro_next = math.sqrt(a / math.log(u * (n + 1) + b))
    return fro_next * power_sum


def _zero_tail(eps: float, n: int, kind: str) -> float:
    return 0.0


def _unit_base(base, d: int, r: int) -> np.ndarray:
    """``base`` scaled to unit Frobenius norm; the uniform d x r matrix when None."""
    if base is None:
        return np.full((d, r), 1.0 / math.sqrt(d * r))
    base = np.asarray(base, dtype=np.float64)
    nrm = float(np.linalg.norm(base))
    if base.shape != (d, r) or nrm == 0.0:
        raise ValueError("base must be a nonzero d x r matrix")
    return base / nrm


def fixed_order_product(X: np.ndarray, M_T) -> np.ndarray:
    """X @ M_T as one fixed-order sum over the last axis of X (the rows of M_T).

    Row c of ``M_T`` broadcasts against ``X[..., c, None]``.  Every row of a
    block takes the same float operations as a lone row, so a result does
    not depend on how many rows are computed together; a matmul does not
    promise that.
    """
    Y = X[..., 0, None] * M_T[0]
    for c in range(1, len(M_T)):
        Y += X[..., c, None] * M_T[c]
    return Y


def _frobenius_rows(S: np.ndarray) -> np.ndarray:
    """||S[k]||_F of each matrix of a (k, d, r) stack.

    ``vecdot`` over the flattened rows rounds each row as ``np.linalg.norm``
    of that matrix does; a column fold, ``einsum`` or ``norm(axis=...)`` do
    not once d * r > 1.
    """
    R = S.reshape(len(S), -1)
    return np.sqrt(np.vecdot(R, R))


# ---------------------------------------------------------------------------


@dataclass(eq=False)
class NoiseSchedule:
    """Matrix sequence sigma(n) with optional analytic structure.

    ``envelope`` maps an index array to the norms ||sigma(n)||_F (times the
    unit ``base``); ``matrix_eval`` maps an int index array of shape s to
    the matrices sigma(n), of shape s + (d, r).  ``tail(eps, n, kind)``,
    where the family has one, bounds the remainder past n of the series
    ``kind`` ('s' or 'sprime').
    """

    kind: str
    d: int
    r: int
    h: float
    params: dict = field(default_factory=dict)
    base: Optional[np.ndarray] = None
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    matrix_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_L: Optional[float] = None
    tail: Optional[Callable[[float, int, str], float]] = None

    def __post_init__(self) -> None:
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"step size h must be positive and finite, got {self.h!r}")
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        if (self.envelope is None) == (self.matrix_eval is None):
            raise ValueError("exactly one of envelope/matrix_eval required")
        if self.envelope is not None:
            self.base = _unit_base(self.base, self.d, self.r)

    def sigma(self, n: int) -> np.ndarray:
        """sigma(n) as a (d, r) array."""
        if n < 0:
            raise ValueError("schedule index must be non-negative")
        if self.envelope is not None:
            s = float(self.envelope(np.asarray(float(n))))
            return s * self.base
        return self.matrix_eval(np.asarray(int(n)))

    def frobenius_grid(self, ns: np.ndarray) -> np.ndarray:
        """Vectorised Frobenius norms over an index array."""
        ns = np.asarray(ns)
        if self.envelope is not None:
            return np.abs(self.envelope(ns.astype(np.float64)))
        return _frobenius_rows(self._stack(ns.ravel())).reshape(ns.shape)

    def _stack(self, ns: np.ndarray) -> np.ndarray:
        """sigma(n) for each n of a flat index array, as a (k, d, r) stack."""
        ns = ns.astype(np.int64)
        if ns.size and ns.min() < 0:
            raise ValueError("schedule index must be non-negative")
        return np.asarray(self.matrix_eval(ns), dtype=np.float64).reshape(len(ns), self.d, self.r)

    def shocks(self, xi: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
        """Shocks sqrt(h) sigma(n) xi and norms ||sigma(n)||_F for n = n0 .. n0+k-1.

        ``xi`` has shape (k, ..., r): the noise of k consecutive steps of one
        path, or of each path in a block.  The shocks have shape (k, ..., d).
        The product with sigma(n) is ``fixed_order_product``, so a path's
        shock has the same bits alone and in a block of any size.  A
        non-finite shock is reported by the diagnostics fold, at the step
        whose state it makes non-finite.
        """
        k = len(xi)
        ns = np.arange(n0, n0 + k)
        lead = (k,) + (1,) * (xi.ndim - 2)
        if self.envelope is not None:
            fro = self.frobenius_grid(ns)
            U = fixed_order_product(xi, self.base.T)
            U *= (math.sqrt(self.h) * fro).reshape(lead + (1,))
        else:
            S = self._stack(ns)
            fro = _frobenius_rows(S)
            U = fixed_order_product(xi, np.moveaxis(S, 2, 0).reshape((self.r,) + lead + (self.d,)))
            U *= math.sqrt(self.h)
        return U, fro

    def series_tail_bound(self, eps: float, n_trunc: int, kind: str = "s") -> Optional[float]:
        """Rigorous remainder bound past n_trunc, or None when unavailable."""
        if self.tail is None:
            return None
        return self.tail(float(eps), int(n_trunc), kind)


def _require_finite(what: str, params: dict) -> None:
    """Reject a non-finite family parameter.

    NaN passes every `<= 0` check, and inf makes an envelope of NaN or inf.
    """
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{what} needs a finite {key}, got {value!r}")


# The discrete families that are a continuous one at t = n: name -> (entry, defaults).
_AT_T_EQUALS_N = {
    "zero": ("constant", {"c": 0.0}),
    "constant": ("constant", {}),
    "power": ("power_decay", {}),
    "inverse_log": ("inverse_log_t", {"b": 2.0}),
}


def schedule_family(name: str, *, h: float, d: int = 1, r: int = 1, base=None, **params) -> NoiseSchedule:
    """Closed-form schedule families.

    zero                  sigma(n) = 0
    constant(c)           sigma(n) = c
    power(c, p)           sigma(n) = c (n+1)^{-p}, p > 0
    geometric(c, rho)     sigma(n) = c rho^n, 0 < rho < 1
    inverse_log(a, b)     sigma(n)^2 = a / log(n + b), b > 1

    All but geometric are the ``sigma_family`` entries constant, power_decay
    and inverse_log_t at t = n (zero is constant at c = 0), with their own
    defaults and error text: inverse_log's b defaults to 2.  Geometric keeps
    c rho^n, which exp_decay's c exp(-a n) does not round alike.
    """
    what = f"{name} schedule"
    if name == "geometric":
        c = float(params.pop("c", 1.0))
        rho = _required(params, "rho", what)
        _no_extra(params)
        if c <= 0 or not 0.0 < rho < 1.0:
            raise ValueError("geometric schedule needs c > 0 and 0 < rho < 1")
        prm, L, tail = {"c": c, "rho": rho}, 0.0, partial(_geometric_tail, c, rho)
        _require_finite(what, prm)
        env = lambda ns: c * rho ** np.asarray(ns, dtype=np.float64)
    elif name in _AT_T_EQUALS_N:
        if name == "zero":
            _no_extra(params)  # its c is fixed at 0.0
        entry, defaults = _AT_T_EQUALS_N[name]
        src = _sigma_family(entry, what, 1, 1, None, {**defaults, **params})
        prm = {} if name == "zero" else src.params
        env, L = src.envelope, src.analytic_L
        tail = src.tail_for(1.0) if src.tail_for is not None else None
    else:
        raise ValueError(f"unknown schedule family: {name!r}")
    return NoiseSchedule(
        kind=name, d=d, r=r, h=h, params=prm, base=base, envelope=env, analytic_L=L, tail=tail
    )


def _required(params: dict, key: str, what: str) -> float:
    if key not in params:
        raise ValueError(f"{what} needs {key}")
    return float(params.pop(key))


def _no_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unexpected schedule params: {sorted(params)}")


def tabulated_schedule(source, *, h: float, d: int = 1, r: int = 1) -> NoiseSchedule:
    """Schedule from a CSV of rows (n, value) or (n, v_11 .. v_dr).

    Blank lines and ``#`` comments are skipped; a cell that is not a
    number, a ragged row or a file without rows raises ValueError.
    Indices must be contiguous from 0; evaluating past the table raises.
    No analytic structure is attached, so classification of tabulated
    schedules relies on bounded numerical evidence only.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        # Lines are left-stripped so that an indented comment is a comment;
        # a file without rows is the error below, not loadtxt's warning.
        with open(source) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt((line.lstrip() for line in fh), delimiter=",", comments="#", ndmin=2)
    else:
        table = np.asarray(source, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] not in (2, 1 + d * r):
        raise ValueError("tabulated schedule needs columns (n, value) or (n, d*r values)")
    ns = table[:, 0]
    if not np.array_equal(ns, np.arange(len(ns))):
        raise ValueError("tabulated schedule indices must be contiguous from 0")
    values = table[:, 1:]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"tabulated schedule row n={bad} is not finite: {values[bad].tolist()}")
    if values.shape[1] == 1:
        values = np.repeat(values / math.sqrt(d * r), d * r, axis=1)
    mats = np.array(values).reshape(len(ns), d, r)
    mats.flags.writeable = False

    def matrix_eval(ns: np.ndarray, mats=mats) -> np.ndarray:
        past = ns >= len(mats)
        if past.any():
            raise ValueError(f"tabulated schedule exhausted at n={ns.flat[np.argmax(past)]}")
        return mats[ns]

    return NoiseSchedule(
        kind="tabulated", d=d, r=r, h=h, matrix_eval=matrix_eval, params={"rows": len(ns)}
    )


# ---------------------------------------------------------------------------
# Continuous sources.


@dataclass(eq=False)
class ContinuousSigma:
    """Continuous d x r matrix function Sigma(t) on [0, inf).

    ``env_sq_cell(t0, h)`` returns the exact integral of the squared scalar
    envelope over [t0, t0 + h]; families register cancellation-free closed
    forms (an antiderivative difference would lose all precision once the
    envelope has decayed).  ``tail_for(h)`` is the tail bound (as
    ``NoiseSchedule.tail``) of the schedules derived at step h: for
    non-increasing ||Sigma||_F^2 the cell-rms value at n lies below the
    sampled value at n, so the sampled-form bound holds for both derivations.
    """

    name: str
    d: int
    r: int
    fn: Callable[[float], np.ndarray]
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    env_sq_cell: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    base: Optional[np.ndarray] = None
    monotone_sq_fro: bool = False
    analytic_L: Optional[float] = None
    params: dict = field(default_factory=dict)
    tail_for: Optional[Callable[[float], Callable[[float, int, str], float]]] = None

    def __post_init__(self) -> None:
        if self.envelope is not None and self.base is None:
            self.base = _unit_base(None, self.d, self.r)

    def __call__(self, t: float) -> np.ndarray:
        return self.fn(float(t))


def sigma_family(name: str, *, d: int = 1, r: int = 1, base=None, **params) -> ContinuousSigma:
    """Continuous families with registered squared antiderivatives.

    exp_decay(c, a)       Sigma(t) = c e^{-a t}
    constant(c)           Sigma(t) = c
    power_decay(c, p)     Sigma(t) = c (1 + t)^{-p}, p > 0
    inverse_log_t(a, b)   ||Sigma(t)||_F^2 = a / log(b + t), b > 1
    """
    return _sigma_family(name, f"{name} sigma", d, r, base, params)


def _sigma_family(name: str, what: str, d: int, r: int, base, params: dict) -> ContinuousSigma:
    """``sigma_family``, its errors naming the family as ``what``."""
    unit = _unit_base(base, d, r)

    def build(env, env_sq_cell, L, tail_for, prm):
        _require_finite(what, prm)
        return ContinuousSigma(
            name=name,
            d=d,
            r=r,
            fn=lambda t, env=env, b=unit: float(env(np.asarray(t, dtype=np.float64))) * b,
            envelope=env,
            env_sq_cell=env_sq_cell,
            base=unit,
            monotone_sq_fro=True,  # every family here has non-increasing ||Sigma||_F^2
            analytic_L=L,
            params=prm,
            tail_for=tail_for,
        )

    if name == "exp_decay":
        c = float(params.pop("c", 1.0))
        a = float(params.pop("a", 1.0))
        _no_extra(params)
        if c <= 0 or a <= 0:
            raise ValueError("exp_decay needs c > 0 and a > 0")
        scale = c * c / (2.0 * a)
        if scale == math.inf and c < math.inf:  # build names an infinite c
            raise ValueError(f"exp_decay needs c * c / (2 a) finite, got c = {c!r}, a = {a!r}")

        # a t overflows only where exp(-a t) is 0.0; a t0 is formed first, so
        # that t0 = 0 gives exp(0) even when 2 a overflows.
        def env(t, c=c, a=a):
            with np.errstate(over="ignore"):
                return c * np.exp(-a * np.asarray(t, dtype=np.float64))

        def cell(t0, h, scale=scale, a=a):
            with np.errstate(over="ignore"):
                return scale * np.exp(-2.0 * (a * np.asarray(t0))) * -math.expm1(-2.0 * a * h)

        return build(
            env,
            cell,
            0.0,
            lambda h, c=c, a=a: partial(_geometric_tail, c, math.exp(-a * h)),
            {"c": c, "a": a},
        )
    if name == "constant":
        c = _required(params, "c", what)
        _no_extra(params)
        if c < 0:
            raise ValueError(f"{what} needs c >= 0")
        return build(
            lambda t, c=c: np.full_like(np.asarray(t, dtype=np.float64), c),
            lambda t0, h, c=c: np.full_like(np.asarray(t0, dtype=np.float64), c * c * h),
            math.inf if c > 0 else 0.0,
            (lambda h: _zero_tail) if c == 0.0 else None,
            {"c": c},
        )
    if name == "power_decay":
        c = float(params.pop("c", 1.0))
        p = _required(params, "p", what)
        _no_extra(params)
        if c <= 0 or p <= 0:
            raise ValueError(f"{what} needs c > 0 and p > 0")

        def cell(t0, h, c=c, p=p):
            t0 = np.asarray(t0, dtype=np.float64)
            if p == 0.5:
                return c * c * np.log1p(h / (1.0 + t0))
            # At t0 = inf (n h overflowed) this is inf * 0.0 for p < 0.5; the limit is 0.0.
            with np.errstate(invalid="ignore"):
                val = (
                    c
                    * c
                    * (1.0 + t0) ** (1.0 - 2.0 * p)
                    * -np.expm1((1.0 - 2.0 * p) * np.log1p(h / (1.0 + t0)))
                    / (2.0 * p - 1.0)
                )
            return np.where(t0 < math.inf, val, 0.0)

        return build(
            lambda t, c=c, p=p: c * (1.0 + np.asarray(t, dtype=np.float64)) ** -p,
            cell,
            0.0,
            lambda h, c=c, p=p: partial(_power_tail, c, p, h),
            {"c": c, "p": p},
        )
    if name == "inverse_log_t":
        a = _required(params, "a", what)
        b = float(params.pop("b", math.e**2))
        _no_extra(params)
        if a <= 0 or b <= 1.0:
            raise ValueError(f"{what} needs a > 0 and b > 1")
        # Squared antiderivative involves the logarithmic integral; keep the
        # quadrature route for cell averages and register only asymptotics.
        return build(
            lambda t, a=a, b=b: np.sqrt(a / np.log(np.asarray(t, dtype=np.float64) + b)),
            None,
            a,
            lambda h, a=a, b=b: partial(_invlog_tail, a, b, h),
            {"a": a, "b": b},
        )
    raise ValueError(f"unknown continuous sigma family: {name!r}")


def _derived(sigma: ContinuousSigma, h: float, derivation: str, **fields) -> NoiseSchedule:
    """The schedule derived from ``sigma`` at step h, with the source's analytic fields."""
    sched = NoiseSchedule(
        kind=f"{derivation}[{sigma.name}]",
        d=sigma.d,
        r=sigma.r,
        h=h,
        params=dict(sigma.params),
        analytic_L=sigma.analytic_L,
        **fields,
    )
    if sigma.tail_for is not None:
        # After __post_init__ has rejected h <= 0, which could overflow exp(-a h).
        sched.tail = sigma.tail_for(h)
    return sched


def from_sigma_sampled(sigma: ContinuousSigma, h: float) -> NoiseSchedule:
    """Pointwise derivation sigma(n) = Sigma(n h)."""
    if sigma.envelope is not None:
        def env(ns, e=sigma.envelope, h=h):
            with np.errstate(over="ignore"):  # n h = inf, where each envelope has its limit
                return e(np.asarray(ns, dtype=np.float64) * h)

        return _derived(sigma, h, "sampled", base=sigma.base, envelope=env)

    def matrix_eval(ns: np.ndarray, s=sigma, h=h) -> np.ndarray:
        mats = [np.asarray(s(n * h), dtype=np.float64) for n in ns.ravel().tolist()]
        return np.array(mats).reshape(ns.shape + (s.d, s.r))

    return _derived(sigma, h, "sampled", matrix_eval=matrix_eval)


def from_sigma_cell_rms(sigma: ContinuousSigma, h: float, rel_tol: float = 1e-10) -> NoiseSchedule:
    """Cell root-mean-square derivation.

    [sigma(n)]_ij = sqrt((1/h) int_{nh}^{(n+1)h} Sigma_ij(s)^2 ds), using a
    registered antiderivative when the family has one and adaptive Simpson
    quadrature otherwise.

    Quadrature averages one entry for an envelope source, its square, and
    one per (i, j) for a matrix source, Sigma_ij^2, squared by
    ``np.float_power`` as Python's ``float ** 2`` rounds (numpy's ``x * x``
    does not, in the last bit).  A request makes one quadrature call per
    entry over all its missing cells, kept in an (n,) or (n, d, r) cache.
    A failure names the lowest failing cell of the first failing entry, in
    (i, j) order.
    """
    if sigma.envelope is not None and sigma.env_sq_cell is not None:
        def env(ns, cell=sigma.env_sq_cell, h=h):
            with np.errstate(over="ignore"):  # as in from_sigma_sampled
                t0 = np.asarray(ns, dtype=np.float64) * h
            return np.sqrt(np.maximum(cell(t0, h), 0.0) / h)

        return _derived(sigma, h, "cell_rms", base=sigma.base, envelope=env)

    if sigma.envelope is not None:
        shape, squares = (), {(): lambda t, e=sigma.envelope: np.float_power(e(t), 2.0)}
    else:
        shape = (sigma.d, sigma.r)
        squares = {
            ij: lambda ts, ij=ij, s=sigma: np.float_power([np.asarray(s(t))[ij] for t in ts], 2.0)
            for ij in np.ndindex(shape)
        }
    rms, done = np.empty((0,) + shape), np.empty(0, dtype=bool)

    def cell_values(ns):
        nonlocal rms, done
        idx = np.asarray(ns).astype(np.int64)
        if idx.size == 0:
            return np.empty(idx.shape + shape)
        if idx.min() < 0:
            raise ValueError("schedule index must be non-negative")
        if idx.max() >= len(rms):
            grow = max(int(idx.max()) + 1, 2 * len(rms)) - len(rms)
            rms = np.concatenate([rms, np.empty((grow,) + shape)])
            done = np.concatenate([done, np.zeros(grow, dtype=bool)])
        cells = np.unique(idx[~done[idx]])
        if cells.size:
            with np.errstate(over="ignore"):  # n h = inf: that cell fails, and is named, below
                a, b = cells * h, (cells + 1) * h
            for entry, sq in squares.items():
                try:
                    val = adaptive_simpson(sq, a, b, rel_tol=rel_tol)
                except QuadratureError as exc:
                    which = ", entry ({},{})".format(*entry) if entry else ""
                    raise QuadratureError(f"cell-rms quadrature failed on cell n={cells[exc.index]}"
                                          f"{which}: {exc}", exc.index) from exc
                rms[(cells,) + entry] = np.sqrt(np.maximum(val, 0.0) / h)
            done[cells] = True
        return rms[idx]

    route = {"base": sigma.base, "envelope": cell_values} if shape == () else {"matrix_eval": cell_values}
    return _derived(sigma, h, "cell_rms", **route)
