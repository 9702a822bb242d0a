"""Catalogue of drift functions with declared structural properties.

A drift f: R^d -> R^d enters the scheme through the implicit relation
x* = x - h f(x*).  The catalogue declares, per family, which of the
structural hypotheses hold:

* dissipative:             <x, f(x)> > 0 for x != 0, f(0) = 0
* uniform_mean_reverting:  liminf over large shells of <x, f(x)> is positive
* strong_mean_reverting:   <x, f(x)> / ||x|| grows without bound
* affine:                  f(x) = -A x with every eigenvalue of A in the
                           open left half plane

and ``h_max``, the largest step with one implicit stage per state: the
paper's "step size chosen sufficiently small".  The stage y + h f(y) = x
has a unique root while 1 + h f' > 0, so a monotone family has no bound
(inf) and ``saturating`` has 8 / c, its gain's slope being at least -c/8.

The hypotheses are semi-infinite conditions that cannot be verified
numerically, so the catalogue's declared flags are taken on trust, and
user-supplied drifts carry their flags on the same basis.

Evaluation is batched: ``eval`` maps (..., d) -> (..., d).  Componentwise
families additionally expose elementwise ``scalar_eval``/``scalar_deriv``
(ufunc-compatible), and rotationally symmetric families expose the radial
gain g with f(x) = g(||x||) x/||x||; the implicit solver exploits both.
The saturating drift at d = 1 also exposes ``scalar_eval``, so that the scalar
solve evaluates it on floats.  The linear drift is affine only: its stage is (I - hA)^{-1} x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class DriftSpec:
    name: str
    d: int
    eval: Callable[[np.ndarray], np.ndarray]
    dissipative: bool = True
    uniform_mean_reverting: bool = False
    strong_mean_reverting: bool = False
    affine_matrix: Optional[np.ndarray] = None
    componentwise: bool = False
    scalar_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    scalar_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial: bool = False
    radial_gain: Optional[Callable[[float], float]] = None
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h_max: float = math.inf

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("drift dimension must be positive")
        # Flag hierarchy: strong => uniform => dissipative.
        if self.strong_mean_reverting and not self.uniform_mean_reverting:
            raise ValueError("strong_mean_reverting requires uniform_mean_reverting")
        if self.uniform_mean_reverting and not self.dissipative:
            raise ValueError("uniform_mean_reverting requires dissipative")
        if self.affine_matrix is not None:
            a = np.asarray(self.affine_matrix, dtype=np.float64)
            if a.shape != (self.d, self.d):
                raise ValueError("affine_matrix must be d x d")
            object.__setattr__(self, "affine_matrix", a)
        if self.componentwise and self.scalar_eval is None:
            raise ValueError("componentwise drift needs scalar_eval")
        if self.radial and self.radial_gain is None:
            raise ValueError("radial drift needs radial_gain")

    @property
    def affine(self) -> bool:
        return self.affine_matrix is not None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(np.asarray(x, dtype=np.float64))


def make_drift(
    eval: Callable[[np.ndarray], np.ndarray],
    d: int,
    *,
    name: str = "custom",
    dissipative: bool = True,
    uniform_mean_reverting: bool = False,
    strong_mean_reverting: bool = False,
    scalar_eval=None,
    scalar_deriv=None,
    jac=None,
) -> DriftSpec:
    """Wrap a user drift; flags are taken on trust.  The catalogue's componentwise
    families, cubic and arctan, are built through it too."""
    return DriftSpec(
        name=name,
        d=d,
        eval=eval,
        dissipative=dissipative,
        uniform_mean_reverting=uniform_mean_reverting,
        strong_mean_reverting=strong_mean_reverting,
        componentwise=scalar_eval is not None,
        scalar_eval=scalar_eval,
        scalar_deriv=scalar_deriv,
        jac=jac,
    )


# The parameters each catalogue family reads; linear's A replaces its lam and d.
_READS = {"linear": {"lam", "d"}, "cubic": {"d"}, "arctan": {"d"}, "saturating": {"c", "d"}}


def builtin_drift(name: str, **params) -> DriftSpec:
    """Construct a catalogue drift.

    Families:
      linear      f(x) = -A x for a stable matrix A given via ``A=...``;
                  lam and d in its place give A = -lam I (lam > 0)
      cubic       f(x) = x + x^3 componentwise
      saturating  f(x) = c * x / (1 + ||x||^2), dissipative only
      arctan      f(x) = atan(x) componentwise, no strong mean reversion

    An unknown family, or a parameter its family does not read, is a ValueError.
    """
    if name not in _READS:
        raise ValueError(f"unknown drift family: {name!r}")
    unread = set(params) - ({"A"} if name == "linear" and "A" in params else _READS[name])
    if unread:
        raise ValueError(f"unexpected {name} params: {sorted(unread)}")
    d = int(params.get("d", 1))
    if name == "linear":
        if "A" not in params:
            lam = float(params.get("lam", 1.0))
            if not 0 < lam < math.inf:
                raise ValueError(f"linear drift requires a finite lam > 0, got {lam!r}")
            params = {"A": -lam * np.eye(d)}
        A = np.asarray(params["A"], dtype=np.float64)
        d = A.shape[0]
        if A.shape != (d, d) or d < 1:
            raise ValueError(f"A must be square and nonempty, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError(f"linear drift needs a finite A, got {A.tolist()}")
        # A triangular matrix's eigenvalues are its diagonal, exactly; LAPACK can round a tiny one to 0.
        spectrum = lambda M, eig: eig(M) if np.triu(M, 1).any() and np.tril(M, -1).any() else np.diag(M)
        eigs = spectrum(A, np.linalg.eigvals)
        if not (eigs.real < 0).all():
            raise ValueError("linear drift requires all eigenvalues of A in Re < 0")
        # <x, -Ax> > 0 for all x iff the symmetric part of -A is PD; halved, its sum cannot
        # overflow, and an A with entries that halving rounds is scaled to max |A| ~ 2^1022.
        S = np.ldexp(A, 1023 - np.frexp(abs(A).max())[1]) if abs(A[A != 0]).min() < 2.0**-1021 else A
        dissipative = bool(spectrum(-0.5 * S - 0.5 * S.T, np.linalg.eigvalsh).min() > 0)

        def ev(x, A=A):
            return -np.einsum("ij,...j->...i", A, np.asarray(x, dtype=np.float64))

        def jc(x, A=A):
            return np.broadcast_to(-A, np.shape(x) + (d,)).copy()

        return DriftSpec(
            name="linear",
            d=d,
            eval=ev,
            dissipative=dissipative,
            uniform_mean_reverting=dissipative,
            strong_mean_reverting=dissipative,
            affine_matrix=A,
            jac=jc,
        )
    if name == "cubic":
        # Products, not x**3: pow costs ~15x a multiply on small arrays.
        cube = lambda x: x + x * x * x
        return make_drift(
            cube,
            d,
            name="cubic",
            uniform_mean_reverting=True,
            strong_mean_reverting=True,
            scalar_eval=cube,
            scalar_deriv=lambda x: 1.0 + 3.0 * (x * x),
        )
    if name == "arctan":
        return make_drift(
            np.arctan,
            d,
            name="arctan",
            uniform_mean_reverting=True,
            scalar_eval=np.arctan,
            scalar_deriv=lambda x: 1.0 / (1.0 + x**2),
        )
    c = float(params.get("c", 1.0))
    if not 0 < c < math.inf:
        raise ValueError(f"saturating drift requires a finite c > 0, got {c!r}")

    def ev(x, c=c):
        x = np.asarray(x, dtype=np.float64)
        s = np.sum(x * x, axis=-1, keepdims=True)
        return c * x / (1.0 + s)

    def gain(y, c=c):
        return c * y / (1.0 + y * y)

    return DriftSpec(
        name="saturating",
        d=d,
        eval=ev,
        dissipative=True,
        # At d = 1 the gain is f itself, in the float operations of ev.
        scalar_eval=gain if d == 1 else None,
        radial=True,
        radial_gain=gain,
        # g' = c (1 - t^2) / (1 + t^2)^2 is smallest, -c/8, at t = sqrt(3).
        h_max=8.0 / c,
    )
