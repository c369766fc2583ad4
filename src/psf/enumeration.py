"""Exact f-, h- and g-vector computation.

All arithmetic is on Python integers, so the values are exact for any
complex this library can hold in memory.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .complexes import Complex, ComplexError


class DimensionTooSmall(ComplexError):
    pass


class FVector(NamedTuple):
    """Face counts (f_-1, f_0, ..., f_d) with f_-1 = 1."""

    entries: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.entries) - 2

    def f(self, k: int) -> int:
        """f_k, with k running from -1 to dim."""
        if k < -1 or k > self.dim:
            raise DimensionTooSmall(f"f_{k} undefined for dimension {self.dim}")
        return self.entries[k + 1]


class GVector(NamedTuple):
    """h-vector (h_0..h_{d+1}) together with g_i = h_i - h_{i-1}."""

    h: tuple[int, ...]
    d: int

    def g(self, i: int) -> int:
        if i < 1 or i > self.d + 1:
            raise DimensionTooSmall(f"g_{i} undefined for dimension {self.d}")
        return self.h[i] - self.h[i - 1]


def f_vector(k: Complex) -> FVector:
    if k.dim < 0:
        raise ComplexError("f-vector of the empty complex is just (1,)")
    return FVector(k.f_counts())


def h_vector(k: Complex) -> GVector:
    """h-vector via the alternating binomial sum over face counts."""
    if not k.is_pure:
        raise ComplexError("h-vector requires a pure complex")
    fv = f_vector(k)
    d = k.dim
    h = tuple(
        sum((-1) ** (i - j) * comb(d + 1 - j, i - j) * fv.f(j - 1) for j in range(i + 1))
        for i in range(d + 2)
    )
    return GVector(h, d)


def g1(k: Complex) -> int:
    """f_0 - (d + 2); zero exactly on simplex boundaries."""
    if k.dim < 1:
        raise DimensionTooSmall("g_1 needs dimension >= 1")
    return len(k.vertices) - (k.dim + 2)


def g_from_counts(d: int, f0: int, f1: int, f2: Optional[int] = None
                  ) -> tuple[Optional[int], Optional[int]]:
    """(g2, g3) of a d-complex with f0 vertices, f1 edges and f2 triangles,
    for ``g2``, ``g3`` and the replay ledger alike.  g2 is None below
    dimension 2, and g3 below dimension 3 or when f2 is not given."""
    g2 = f1 - (d + 1) * f0 + comb(d + 2, 2) if d >= 2 else None
    g3 = (f2 - d * f1 + comb(d + 1, 2) * f0 - comb(d + 2, 3)
          if d >= 3 and f2 is not None else None)
    return g2, g3


def g2(k: Complex) -> int:
    if k.dim < 2:
        raise DimensionTooSmall("g_2 needs dimension >= 2")
    return g_from_counts(k.dim, len(k.vertices), len(k.faces(1)))[0]


def g3(k: Complex) -> int:
    if k.dim < 3:
        raise DimensionTooSmall("g_3 needs dimension >= 3")
    return g_from_counts(k.dim, len(k.vertices), len(k.faces(1)), len(k.faces(2)))[1]
