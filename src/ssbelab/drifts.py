"""Catalogue of drift functions with declared structural properties.

A drift f: R^d -> R^d enters the scheme through the implicit relation
x* = x - h f(x*).  The catalogue declares, per family, which of the
structural hypotheses hold:

* dissipative:             <x, f(x)> > 0 for x != 0, f(0) = 0
* uniform_mean_reverting:  liminf over large shells of <x, f(x)> is positive
* strong_mean_reverting:   <x, f(x)> / ||x|| grows without bound
* affine:                  f(x) = -A x with every eigenvalue of A in the
                           open left half plane

The hypotheses are semi-infinite conditions that cannot be verified
numerically, so the catalogue's declared flags are taken on trust, and
user-supplied drifts carry their flags on the same basis.

Evaluation is batched: ``eval`` maps (..., d) -> (..., d).  Componentwise
families additionally expose elementwise ``scalar_eval``/``scalar_deriv``
(ufunc-compatible), and rotationally symmetric families expose the radial
gain g with f(x) = g(||x||) x/||x||; the implicit solver exploits both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    affine: bool = False
    affine_matrix: Optional[np.ndarray] = None
    componentwise: bool = False
    scalar_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    scalar_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial: bool = False
    radial_gain: Optional[Callable[[float], float]] = None
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("drift dimension must be positive")
        # Flag hierarchy: strong => uniform => dissipative.
        if self.strong_mean_reverting and not self.uniform_mean_reverting:
            raise ValueError("strong_mean_reverting requires uniform_mean_reverting")
        if self.uniform_mean_reverting and not self.dissipative:
            raise ValueError("uniform_mean_reverting requires dissipative")
        if self.affine != (self.affine_matrix is not None):
            raise ValueError("affine flag and affine_matrix must agree")
        if self.affine_matrix is not None:
            a = np.asarray(self.affine_matrix, dtype=np.float64)
            if a.shape != (self.d, self.d):
                raise ValueError("affine_matrix must be d x d")
            object.__setattr__(self, "affine_matrix", a)
        if self.componentwise and self.scalar_eval is None:
            raise ValueError("componentwise drift needs scalar_eval")
        if self.radial and self.radial_gain is None:
            raise ValueError("radial drift needs radial_gain")

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
    """Wrap a user drift; flags are taken on trust."""
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


def _componentwise(name, d, sc_eval, sc_deriv, params, **flags) -> DriftSpec:
    def batched(x: np.ndarray) -> np.ndarray:
        return sc_eval(np.asarray(x, dtype=np.float64))

    return DriftSpec(
        name=name,
        d=d,
        eval=batched,
        componentwise=True,
        scalar_eval=sc_eval,
        scalar_deriv=sc_deriv,
        params=params,
        **flags,
    )


def builtin_drift(name: str, **params) -> DriftSpec:
    """Construct a catalogue drift.

    Families:
      linear      f(x) = lam * x (lam > 0, componentwise), or f(x) = -A x
                  for a stable matrix A given via ``A=...``
      cubic       f(x) = x + x^3 componentwise
      saturating  f(x) = c * x / (1 + ||x||^2), dissipative only
      arctan      f(x) = atan(x) componentwise, no strong mean reversion
    """
    d = int(params.pop("d", 1))
    if name == "linear":
        if "A" in params:
            A = np.asarray(params.pop("A"), dtype=np.float64)
            if params:
                raise ValueError(f"unexpected linear params: {sorted(params)}")
            d = A.shape[0]
            if A.shape != (d, d):
                raise ValueError("A must be square")
            eigs = np.linalg.eigvals(A)
            if not (eigs.real < 0).all():
                raise ValueError("linear drift requires all eigenvalues of A in Re < 0")
            # <x, -Ax> > 0 for all x iff the symmetric part of -A is PD.
            sym = -0.5 * (A + A.T)
            dissipative = bool(np.linalg.eigvalsh(sym).min() > 0)

            def ev(x, A=A):
                return -np.einsum("ij,...j->...i", A, np.asarray(x, dtype=np.float64))

            def jc(x, A=A):
                x = np.asarray(x, dtype=np.float64)
                return np.broadcast_to(-A, x.shape + (d,)).copy()

            return DriftSpec(
                name="linear",
                d=d,
                eval=ev,
                dissipative=dissipative,
                uniform_mean_reverting=dissipative,
                strong_mean_reverting=dissipative,
                affine=True,
                affine_matrix=A,
                jac=jc,
                params={"A": A},
            )
        lam = float(params.pop("lam", 1.0))
        if params:
            raise ValueError(f"unexpected linear params: {sorted(params)}")
        if lam <= 0:
            raise ValueError("linear drift requires lam > 0")

        def sc_eval(x, lam=lam):
            return lam * np.asarray(x, dtype=np.float64)

        def sc_deriv(x, lam=lam):
            return np.full_like(np.asarray(x, dtype=np.float64), lam)

        return DriftSpec(
            name="linear",
            d=d,
            eval=sc_eval,
            dissipative=True,
            uniform_mean_reverting=True,
            strong_mean_reverting=True,
            affine=True,
            affine_matrix=-lam * np.eye(d),
            componentwise=True,
            scalar_eval=sc_eval,
            scalar_deriv=sc_deriv,
            params={"lam": lam},
        )
    if name == "cubic":
        if params:
            raise ValueError(f"unexpected cubic params: {sorted(params)}")
        return _componentwise(
            "cubic",
            d,
            # Products, not x**3: pow costs ~15x a multiply on small arrays.
            lambda x: x + x * x * x,
            lambda x: 1.0 + 3.0 * (x * x),
            {},
            dissipative=True,
            uniform_mean_reverting=True,
            strong_mean_reverting=True,
        )
    if name == "arctan":
        if params:
            raise ValueError(f"unexpected arctan params: {sorted(params)}")
        return _componentwise(
            "arctan",
            d,
            np.arctan,
            lambda x: 1.0 / (1.0 + x**2),
            {},
            dissipative=True,
            uniform_mean_reverting=True,
            strong_mean_reverting=False,
        )
    if name == "saturating":
        c = float(params.pop("c", 1.0))
        if params:
            raise ValueError(f"unexpected saturating params: {sorted(params)}")
        if c <= 0:
            raise ValueError("saturating drift requires c > 0")

        def ev(x, c=c):
            x = np.asarray(x, dtype=np.float64)
            s = np.sum(x * x, axis=-1, keepdims=True)
            return c * x / (1.0 + s)

        return DriftSpec(
            name="saturating",
            d=d,
            eval=ev,
            dissipative=True,
            radial=True,
            radial_gain=lambda rho, c=c: c * rho / (1.0 + rho * rho),
            params={"c": c},
        )
    raise ValueError(f"unknown drift family: {name!r}")

