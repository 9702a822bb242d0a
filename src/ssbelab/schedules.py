"""Deterministic noise schedules n -> sigma(n) and continuous sources.

A schedule is the d x r matrix sequence feeding the shock term
sqrt(h) sigma(n) xi(n+1).  Closed-form families carry analytic metadata so
that regime decisions can be exact where the underlying series criteria
are analytic:

* ``analytic_L``      the limit of ||sigma(n)||_F^2 log n (0, finite, or inf),
* ``sigma_vanishes``  whether the Frobenius norm tends to zero,
* tail majorants      rigorous upper bounds on the remainders of the two
                      classifier series past a truncation index, built from
                      the Mills envelope Q(x) <= e^{-x^2/2}/(x sqrt(2 pi)).

Families keep a unit-Frobenius base matrix so the scalar envelope s(n) is
exactly the Frobenius norm.  Numerical fallbacks (empirical trend probes,
plain partial sums) exist for tabulated schedules with no structure.

Continuous sources Sigma(t) produce schedules two ways: pointwise sampling
sigma(n) = Sigma(n h), or cell root-mean-square values
[sigma(n)]_ij = sqrt(mean of Sigma_ij^2 over [nh, (n+1)h]) via a registered
exact cell integral when the family has one, else adaptive quadrature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    log_x = math.log(eps / c) - (n + 1) * math.log(rho)
    if log_x > 350.0:
        return _TINY / (1.0 - rho)
    x_next = math.exp(log_x)
    if kind == "s":
        first = _mills_env(x_next)
    else:
        first = c * rho ** (n + 1) * math.exp(-0.5 * x_next * x_next)
    return max(first, _TINY) / (1.0 - rho)


def _power_tail(c: float, p: float, u: float, q: float, eps: float, n: int, kind: str) -> float:
    try:
        bound = _power_tail_direct(c, p, u, q, eps, n, kind)
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
    log_w = log_gam + 2.0 * p * math.log(u * (n + 1) + q)
    return _TINY if log_w > 707.0 else math.inf


def _power_tail_direct(c: float, p: float, u: float, q: float, eps: float, n: int, kind: str):
    # fro(j) = c (u j + q)^{-p}; substitution w = (eps^2/2c^2)(u s + q)^{2p}
    # turns the integral comparison into an upper incomplete gamma.
    gam = eps * eps / (2.0 * c * c)
    w_n = gam * (u * n + q) ** (2.0 * p)
    alpha = 1.0 / (2.0 * p) - 0.5
    if alpha > 0.0:
        gamma_upper = float(gammaincc(alpha, w_n)) * float(_gamma_fn(alpha))
        if kind == "s":
            return gam ** (-1.0 / (2.0 * p)) / (4.0 * p * u * math.sqrt(math.pi)) * gamma_upper
        return c * gam ** (0.5 - 1.0 / (2.0 * p)) / (2.0 * p * u) * gamma_upper
    # p >= 1: the exponent w_j is convex in j, so increments are bounded
    # below by the first one and the terms are geometrically dominated.
    w1 = gam * (u * (n + 1) + q) ** (2.0 * p)
    w2 = gam * (u * (n + 2) + q) ** (2.0 * p)
    delta = w2 - w1
    if delta <= 0.0:
        return math.inf
    x1 = math.sqrt(2.0 * w1)
    first = _mills_env(x1) if kind == "s" else c * (u * (n + 1) + q) ** -p * math.exp(-w1)
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


def _tails(bound: Callable, *args) -> tuple[Callable, Callable]:
    """The (s, sprime) remainder bounds (eps, n) -> bound(*args, eps, n, kind)."""
    return (
        lambda eps, n: bound(*args, eps, n, "s"),
        lambda eps, n: bound(*args, eps, n, "sprime"),
    )


def _zero_tail(eps: float, n: int) -> float:
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


# ---------------------------------------------------------------------------


@dataclass(eq=False)
class NoiseSchedule:
    """Matrix sequence sigma(n) with optional analytic structure."""

    kind: str
    d: int
    r: int
    h: float
    params: dict = field(default_factory=dict)
    base: Optional[np.ndarray] = None
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    matrix_eval: Optional[Callable[[int], np.ndarray]] = None
    analytic_L: Optional[float] = None
    sigma_vanishes: Optional[bool] = None
    tail_s: Optional[Callable[[float, int], float]] = None
    tail_sprime: Optional[Callable[[float, int], float]] = None

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("step size h must be positive")
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
        return self.matrix_eval(int(n))

    def frobenius_grid(self, ns: np.ndarray) -> np.ndarray:
        """Vectorised Frobenius norms over an index array."""
        ns = np.asarray(ns)
        if self.envelope is not None:
            return np.abs(self.envelope(ns.astype(np.float64)))
        return np.array([float(np.linalg.norm(self.sigma(int(n)))) for n in ns.ravel()]).reshape(
            ns.shape
        )

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
            S = np.stack([self.sigma(int(n)) for n in ns])  # (k, d, r)
            fro = np.array([np.linalg.norm(s) for s in S])
            U = fixed_order_product(xi, np.moveaxis(S, 2, 0).reshape((self.r,) + lead + (self.d,)))
            U *= math.sqrt(self.h)
        return U, fro

    def series_tail_bound(self, eps: float, n_trunc: int, kind: str = "s") -> Optional[float]:
        """Rigorous remainder bound past n_trunc, or None when unavailable."""
        fn = self.tail_s if kind == "s" else self.tail_sprime
        if fn is None:
            return None
        return fn(float(eps), int(n_trunc))


def schedule_family(name: str, *, h: float, d: int = 1, r: int = 1, base=None, **params) -> NoiseSchedule:
    """Closed-form schedule families.

    zero                  sigma(n) = 0
    constant(c)           sigma(n) = c
    power(c, p)           sigma(n) = c (n+1)^{-p}, p > 0
    geometric(c, rho)     sigma(n) = c rho^n, 0 < rho < 1
    inverse_log(a, b)     sigma(n)^2 = a / log(n + b), b > 1
    """
    if name == "zero":
        return NoiseSchedule(
            kind="zero",
            d=d,
            r=r,
            h=h,
            base=base,
            envelope=lambda ns: np.zeros_like(np.asarray(ns, dtype=np.float64)),
            analytic_L=0.0,
            sigma_vanishes=True,
            tail_s=_zero_tail,
            tail_sprime=_zero_tail,
        )
    if name == "constant":
        c = float(params.pop("c"))
        _no_extra(params)
        if c < 0:
            raise ValueError("constant schedule needs c >= 0")
        return NoiseSchedule(
            kind="constant",
            d=d,
            r=r,
            h=h,
            params={"c": c},
            base=base,
            envelope=lambda ns, c=c: np.full_like(np.asarray(ns, dtype=np.float64), c),
            analytic_L=math.inf if c > 0 else 0.0,
            sigma_vanishes=c == 0.0,
            tail_s=_zero_tail if c == 0.0 else None,
            tail_sprime=_zero_tail if c == 0.0 else None,
        )
    if name == "power":
        c = float(params.pop("c", 1.0))
        p = float(params.pop("p"))
        _no_extra(params)
        if c <= 0 or p <= 0:
            raise ValueError("power schedule needs c > 0 and p > 0")
        tail_s, tail_sprime = _tails(_power_tail, c, p, 1.0, 1.0)
        return NoiseSchedule(
            kind="power",
            d=d,
            r=r,
            h=h,
            params={"c": c, "p": p},
            base=base,
            envelope=lambda ns, c=c, p=p: c * (np.asarray(ns, dtype=np.float64) + 1.0) ** -p,
            analytic_L=0.0,
            sigma_vanishes=True,
            tail_s=tail_s,
            tail_sprime=tail_sprime,
        )
    if name == "geometric":
        c = float(params.pop("c", 1.0))
        rho = float(params.pop("rho"))
        _no_extra(params)
        if c <= 0 or not 0.0 < rho < 1.0:
            raise ValueError("geometric schedule needs c > 0 and 0 < rho < 1")
        tail_s, tail_sprime = _tails(_geometric_tail, c, rho)
        return NoiseSchedule(
            kind="geometric",
            d=d,
            r=r,
            h=h,
            params={"c": c, "rho": rho},
            base=base,
            envelope=lambda ns, c=c, rho=rho: c * rho ** np.asarray(ns, dtype=np.float64),
            analytic_L=0.0,
            sigma_vanishes=True,
            tail_s=tail_s,
            tail_sprime=tail_sprime,
        )
    if name == "inverse_log":
        a = float(params.pop("a"))
        b = float(params.pop("b", 2.0))
        _no_extra(params)
        if a <= 0 or b <= 1.0:
            raise ValueError("inverse_log schedule needs a > 0 and b > 1")
        tail_s, tail_sprime = _tails(_invlog_tail, a, b, 1.0)
        return NoiseSchedule(
            kind="inverse_log",
            d=d,
            r=r,
            h=h,
            params={"a": a, "b": b},
            base=base,
            envelope=lambda ns, a=a, b=b: np.sqrt(
                a / np.log(np.asarray(ns, dtype=np.float64) + b)
            ),
            analytic_L=a,
            sigma_vanishes=True,
            tail_s=tail_s,
            tail_sprime=tail_sprime,
        )
    raise ValueError(f"unknown schedule family: {name!r}")


def _no_extra(params: dict) -> None:
    if params:
        raise ValueError(f"unexpected schedule params: {sorted(params)}")


def tabulated_schedule(source, *, h: float, d: int = 1, r: int = 1) -> NoiseSchedule:
    """Schedule from a CSV of rows (n, value) or (n, v_11 .. v_dr).

    Indices must be contiguous from 0; evaluating past the table raises.
    No analytic structure is attached, so classification of tabulated
    schedules relies on bounded numerical evidence only.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        rows = []
        with open(source, newline="") as fh:
            for rec in csv.reader(fh):
                if not rec or rec[0].lstrip().startswith("#"):
                    continue
                rows.append([float(v) for v in rec])
        table = np.asarray(rows, dtype=np.float64)
    else:
        table = np.asarray(source, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] not in (2, 1 + d * r):
        raise ValueError("tabulated schedule needs columns (n, value) or (n, d*r values)")
    ns = table[:, 0]
    if not np.array_equal(ns, np.arange(len(ns))):
        raise ValueError("tabulated schedule indices must be contiguous from 0")
    values = table[:, 1:]

    def matrix_eval(n: int, values=values, d=d, r=r) -> np.ndarray:
        if n >= len(values):
            raise ValueError(f"tabulated schedule exhausted at n={n}")
        row = values[n]
        if row.size == 1:
            return np.full((d, r), float(row[0]) / math.sqrt(d * r))
        return row.reshape(d, r)

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
    envelope has decayed).
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
    sigma_vanishes: Optional[bool] = None
    params: dict = field(default_factory=dict)
    tail_family: Optional[tuple] = None  # (family, params...) for derived bounds

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
    unit = _unit_base(base, d, r)

    def build(env, env_sq_cell, monotone, L, vanishes, fam, prm):
        return ContinuousSigma(
            name=name,
            d=d,
            r=r,
            fn=lambda t, env=env, b=unit: float(env(np.asarray(t, dtype=np.float64))) * b,
            envelope=env,
            env_sq_cell=env_sq_cell,
            base=unit,
            monotone_sq_fro=monotone,
            analytic_L=L,
            sigma_vanishes=vanishes,
            params=prm,
            tail_family=fam,
        )

    if name == "exp_decay":
        c = float(params.pop("c", 1.0))
        a = float(params.pop("a", 1.0))
        _no_extra(params)
        if c <= 0 or a <= 0:
            raise ValueError("exp_decay needs c > 0 and a > 0")
        return build(
            lambda t, c=c, a=a: c * np.exp(-a * np.asarray(t, dtype=np.float64)),
            lambda t0, h, c=c, a=a: c
            * c
            / (2.0 * a)
            * np.exp(-2.0 * a * np.asarray(t0, dtype=np.float64))
            * -math.expm1(-2.0 * a * h),
            True,
            0.0,
            True,
            ("exp_decay", c, a),
            {"c": c, "a": a},
        )
    if name == "constant":
        c = float(params.pop("c"))
        _no_extra(params)
        if c < 0:
            raise ValueError("constant needs c >= 0")
        return build(
            lambda t, c=c: np.full_like(np.asarray(t, dtype=np.float64), c),
            lambda t0, h, c=c: np.full_like(np.asarray(t0, dtype=np.float64), c * c * h),
            True,
            math.inf if c > 0 else 0.0,
            c == 0.0,
            ("constant", c),
            {"c": c},
        )
    if name == "power_decay":
        c = float(params.pop("c", 1.0))
        p = float(params.pop("p"))
        _no_extra(params)
        if c <= 0 or p <= 0:
            raise ValueError("power_decay needs c > 0 and p > 0")

        def cell(t0, h, c=c, p=p):
            t0 = np.asarray(t0, dtype=np.float64)
            if p == 0.5:
                return c * c * np.log1p(h / (1.0 + t0))
            return (
                c
                * c
                * (1.0 + t0) ** (1.0 - 2.0 * p)
                * -np.expm1((1.0 - 2.0 * p) * np.log1p(h / (1.0 + t0)))
                / (2.0 * p - 1.0)
            )

        return build(
            lambda t, c=c, p=p: c * (1.0 + np.asarray(t, dtype=np.float64)) ** -p,
            cell,
            True,
            0.0,
            True,
            ("power_decay", c, p),
            {"c": c, "p": p},
        )
    if name == "inverse_log_t":
        a = float(params.pop("a"))
        b = float(params.pop("b", math.e**2))
        _no_extra(params)
        if a <= 0 or b <= 1.0:
            raise ValueError("inverse_log_t needs a > 0 and b > 1")
        # Squared antiderivative involves the logarithmic integral; keep the
        # quadrature route for cell averages and register only asymptotics.
        return build(
            lambda t, a=a, b=b: np.sqrt(a / np.log(np.asarray(t, dtype=np.float64) + b)),
            None,
            True,
            a,
            True,
            ("inverse_log_t", a, b),
            {"a": a, "b": b},
        )
    raise ValueError(f"unknown continuous sigma family: {name!r}")


def _derived_tails(sigma: ContinuousSigma, h: float):
    """Tail majorants for schedules derived from a continuous family.

    For non-increasing ||Sigma||_F^2 the cell-rms value at n lies below the
    sampled value at n, so the sampled-form majorant is rigorous for both
    derivations.
    """
    if sigma.tail_family is None:
        return None, None
    fam = sigma.tail_family
    if fam[0] == "exp_decay":
        _, c, a = fam
        return _tails(_geometric_tail, c, math.exp(-a * h))
    if fam[0] == "power_decay":
        _, c, p = fam
        return _tails(_power_tail, c, p, h, 1.0)
    if fam[0] == "inverse_log_t":
        _, a, b = fam
        return _tails(_invlog_tail, a, b, h)
    if fam == ("constant", 0.0):
        return _zero_tail, _zero_tail
    return None, None


def _derived_common(sigma: ContinuousSigma, h: float, derivation: str) -> dict:
    """The NoiseSchedule fields both derivations take from the source alike."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    tail_s, tail_sprime = _derived_tails(sigma, h)
    return dict(
        kind=f"{derivation}[{sigma.name}]",
        d=sigma.d,
        r=sigma.r,
        h=h,
        params=dict(sigma.params),
        analytic_L=sigma.analytic_L,
        sigma_vanishes=sigma.sigma_vanishes,
        tail_s=tail_s,
        tail_sprime=tail_sprime,
    )


def from_sigma_sampled(sigma: ContinuousSigma, h: float) -> NoiseSchedule:
    """Pointwise derivation sigma(n) = Sigma(n h)."""
    common = _derived_common(sigma, h, "sampled")
    if sigma.envelope is not None:
        env = lambda ns, e=sigma.envelope, h=h: e(np.asarray(ns, dtype=np.float64) * h)
        return NoiseSchedule(base=sigma.base, envelope=env, **common)
    return NoiseSchedule(
        matrix_eval=lambda n, s=sigma, h=h: np.asarray(s(n * h), dtype=np.float64), **common
    )


def _cell_rms(sq: Callable[[float], float], n: int, h: float, rel_tol: float, cell: str) -> float:
    """sqrt of the mean of ``sq`` over [nh, (n+1)h] by adaptive Simpson; a failure names ``cell``."""
    try:
        val = adaptive_simpson(sq, n * h, (n + 1) * h, rel_tol=rel_tol)
    except QuadratureError as exc:
        raise QuadratureError(f"cell-rms quadrature failed on cell {cell}: {exc}") from exc
    return math.sqrt(max(val, 0.0) / h)


def from_sigma_cell_rms(sigma: ContinuousSigma, h: float, rel_tol: float = 1e-10) -> NoiseSchedule:
    """Cell root-mean-square derivation.

    [sigma(n)]_ij = sqrt((1/h) int_{nh}^{(n+1)h} Sigma_ij(s)^2 ds), using a
    registered antiderivative when the family has one and adaptive Simpson
    quadrature otherwise.  Quadrature failures name the offending cell.
    """
    common = _derived_common(sigma, h, "cell_rms")
    if sigma.envelope is not None and sigma.env_sq_cell is not None:
        def env(ns, cell=sigma.env_sq_cell, h=h):
            t0 = np.asarray(ns, dtype=np.float64) * h
            return np.sqrt(np.maximum(cell(t0, h), 0.0) / h)

        return NoiseSchedule(base=sigma.base, envelope=env, **common)

    if sigma.envelope is not None:
        cache: dict[int, float] = {}

        def env_quad(ns, e=sigma.envelope, h=h, rel_tol=rel_tol, cache=cache):
            ns = np.asarray(ns, dtype=np.float64)
            out = np.empty_like(ns)
            sq = lambda t: float(e(np.asarray(t))) ** 2
            for idx, n in np.ndenumerate(ns):
                key = int(n)
                if key not in cache:
                    cache[key] = _cell_rms(sq, key, h, rel_tol, f"n={key}")
                out[idx] = cache[key]
            return out

        return NoiseSchedule(base=sigma.base, envelope=env_quad, **common)

    cache_m: dict[int, np.ndarray] = {}

    def matrix_eval(n: int, s=sigma, h=h, rel_tol=rel_tol) -> np.ndarray:
        if n not in cache_m:
            out = np.empty((s.d, s.r))
            for i, j in np.ndindex(s.d, s.r):
                sq = lambda t, i=i, j=j: float(np.asarray(s(t))[i, j]) ** 2
                out[i, j] = _cell_rms(sq, n, h, rel_tol, f"n={n}, entry ({i},{j})")
            cache_m[n] = out
        return cache_m[n]

    return NoiseSchedule(matrix_eval=matrix_eval, **common)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailLimitReport:
    L: Optional[float]
    method: str  # 'analytic' or 'empirical'
    trend: str  # 'converged' | 'diverging' | 'oscillating' | 'inconclusive'
    probes: tuple[int, ...] = ()
    values: tuple[float, ...] = ()


def default_probe_indices(largest: int = 10**6, count: int = 40) -> np.ndarray:
    pts = np.unique(np.geomspace(2, largest, count).astype(np.int64))
    return pts


def log_tail_limit(schedule: NoiseSchedule, probe_indices=None) -> TailLimitReport:
    """The limit L of ||sigma(n)||_F^2 log n, exact when registered.

    Without analytic metadata the probe values decide a trend only; slow
    drifts are reported as inconclusive rather than guessed at.
    """
    if schedule.analytic_L is not None:
        return TailLimitReport(L=float(schedule.analytic_L), method="analytic", trend="converged")
    if probe_indices is None:
        probe_indices = default_probe_indices()
    probes = np.asarray(probe_indices, dtype=np.int64)
    if probes.size < 5 or (np.diff(probes) <= 0).any():
        raise ValueError("probe indices must be increasing with at least 5 points")
    if probes[0] < 2:
        raise ValueError("probes start at n >= 2 so log n is positive")
    if probes[-1] < 10**4:
        raise ValueError("largest probe index must be at least 1e4")
    fro = schedule.frobenius_grid(probes)
    vals = fro**2 * np.log(probes.astype(np.float64))
    tail = vals[-5:]
    scale = max(float(np.abs(tail).max()), 1e-300)
    spread = float(tail.max() - tail.min()) / scale
    if spread < 0.05:
        return TailLimitReport(
            L=float(tail[-3:].mean()),
            method="empirical",
            trend="converged",
            probes=tuple(int(p) for p in probes),
            values=tuple(float(v) for v in vals),
        )
    diffs = np.diff(vals)
    if (diffs > 0).all() and vals[-1] > 5.0 * max(float(vals[0]), 1e-300):
        trend, L = "diverging", math.inf
    elif int(np.sum(np.diff(np.sign(diffs[-10:])) != 0)) >= 3:
        trend, L = "oscillating", None
    else:
        trend, L = "inconclusive", None
    return TailLimitReport(
        L=L,
        method="empirical",
        trend=trend,
        probes=tuple(int(p) for p in probes),
        values=tuple(float(v) for v in vals),
    )
