"""Regularized Dirac delta kernels for the immersed boundary method.

Each 1D kernel phi(r) satisfies the partition of unity
sum_j phi(r - j) = 1 for any real r, which guarantees exact force and
momentum conservation under spreading/interpolation.  The 3D delta is the
tensor product of three 1D evaluations (Peskin 2002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def cosine4(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cosine kernel with 4-point support (the paper's choice):

        phi(r) = (1/4) (1 + cos(pi r / 2))   for |r| <= 2, else 0.

    Formed in ``out`` (which may be ``r`` itself; a new array without
    it) one operation at a time.  The mask of the zeroing outside the
    support is made only when some ``|r| > 2``, which a stencil build
    never has, so there it allocates nothing.
    """
    r = np.asarray(r, dtype=np.float64)
    # NaN fails both comparisons, so it is zeroed too.
    far = None
    if r.size and not (r.max() <= 2.0 and r.min() >= -2.0):
        far = ~(np.abs(r) <= 2.0)
    out = np.multiply(0.5 * np.pi, r, out=out)
    np.cos(out, out=out)
    np.add(1.0, out, out=out)
    np.multiply(0.25, out, out=out)
    if far is not None:
        out[far] = 0.0
    return out


def peskin4(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Peskin's classical 4-point kernel (satisfies even-odd condition);
    copied into ``out`` (which may be ``r``) when given."""
    r = np.asarray(r, dtype=np.float64)
    a = np.abs(r)
    inner = (3.0 - 2.0 * a + np.sqrt(np.clip(1.0 + 4.0 * a - 4.0 * a**2, 0.0, None))) / 8.0
    outer = (5.0 - 2.0 * a - np.sqrt(np.clip(-7.0 + 12.0 * a - 4.0 * a**2, 0.0, None))) / 8.0
    phi = np.where(a <= 1.0, inner, np.where(a <= 2.0, outer, 0.0))
    if out is None:
        return phi
    out[...] = phi
    return out


def linear2(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2-point linear hat kernel (cheapest; sharper but noisier forces),
    formed in ``out`` (which may be ``r``) when given."""
    r = np.asarray(r, dtype=np.float64)
    out = np.abs(r, out=out)
    np.subtract(1.0, out, out=out)
    return np.clip(out, 0.0, None, out=out)


@dataclass(frozen=True)
class DeltaKernel:
    """A 1D kernel function together with its support half-width."""

    name: str
    #: ``phi(r, out=None)``: the kernel at ``r``, written into ``out``
    #: (which may be ``r`` itself) when given.
    phi: Callable[..., np.ndarray]
    support: int  # number of lattice points per axis touched by one marker

    def offsets(self) -> np.ndarray:
        """Integer node offsets relative to floor(x) covering the support."""
        half = self.support // 2
        return np.arange(-half + 1, half + 1)


KERNELS: dict[str, DeltaKernel] = {
    "cosine4": DeltaKernel("cosine4", cosine4, 4),
    "peskin4": DeltaKernel("peskin4", peskin4, 4),
    "linear2": DeltaKernel("linear2", linear2, 2),
}
