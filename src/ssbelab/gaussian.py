"""Seeded standard-normal vector streams with independent per-path substreams.

The sampling transform is frozen so that reproducibility is a contract, not
an accident:

* uniform bits come from the Philox counter-based generator keyed by
  ``numpy.random.SeedSequence([master_seed, path_index])``;
* each normal deviate is ``ndtri((k + 0.5) * 2**-53)``, formed as
  ``(2k + 1) * 2**-54``, where ``k`` is the top 53 bits of one raw 64-bit
  Philox output (what ``Generator.integers(2**53)`` returns).

Philox bit streams are stable across platforms and numpy releases, and the
inverse CDF is a fixed double-precision algorithm, so equal
``(master_seed, path_index)`` reproduce bit-identical vectors anywhere.
Above k = 2**52 ``k + 0.5`` rounds to an even integer, so adjacent k share
a deviate, and k = 2**53 - 1 gives u = 1.0 and +inf, a non-finite state at
the fold, once per 2**53 draws; the finite deviates span [-8.2924, 8.1259].

Substreams are derived by hash-mixing ``(master_seed, path_index)`` rather
than by jump-ahead, so path ensembles parallelise without coordination.
A stream is single-owner: advance it from one place only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri


@dataclass
class GaussianStream:
    """Source of the i.i.d. standard normal vectors xi(1), xi(2), ...

    ``position`` is the 1-based index of the next vector to be emitted,
    matching the scheme's use of xi(n+1) at step n.
    """

    master_seed: int
    path_index: int
    r: int
    position: int = field(default=1, init=False)
    _bits: np.random.Philox = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.path_index < 0:
            raise ValueError("path_index must be non-negative")
        if self.r < 1:
            raise ValueError("dimension r must be positive")
        seq = np.random.SeedSequence([int(self.master_seed), int(self.path_index)])
        self._bits = np.random.Philox(seed=seq)

    def next_vector(self) -> np.ndarray:
        """Return xi(position) as an (r,) array and advance the stream."""
        out = self.draw_block(1)[0]
        return out

    def draw_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Return the next ``count`` vectors as a (count, r) array.

        Consumes exactly the same bits as ``count`` calls of
        ``next_vector``, so blockwise and stepwise draws interleave freely.
        Given ``out``, a (count, r) array or view, the vectors are written
        into it and ``out`` is returned.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        bits = self._bits.random_raw(count * self.r).reshape(count, self.r)
        bits >>= 10  # 2k + (the bit below k)
        bits |= 1
        u = bits * 2.0**-54
        self.position += count
        return ndtri(u, out=u if out is None else out)


def derive_substream(master_seed: int, path_index: int, r: int) -> GaussianStream:
    """Stream whose seed is a collision-resistant mix of (master_seed, path_index)."""
    return GaussianStream(master_seed=master_seed, path_index=path_index, r=r)

