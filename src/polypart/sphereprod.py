"""The search space: a product of spheres S^(2^(j-1)) for j = 1..s.

Block j is a unit vector of length 2^(j-1)+1 that embeds as the coefficient
vector of a polynomial over the first 2^(j-1)+1 graded-lex monomials of the
degree-schedule basis, so the whole point is a tuple of s polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import Polynomial, degree_schedule, monomial_basis

_NORM_TOL = 1e-12


def block_size(j: int) -> int:
    return 2 ** (j - 1) + 1


@dataclass
class XsPoint:
    """s unit blocks, block j of length 2^(j-1)+1."""

    blocks: tuple

    def __post_init__(self):
        blocks = []
        for j, b in enumerate(self.blocks, start=1):
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (block_size(j),):
                raise ValueError(f"block {j} must have length {block_size(j)}, got {b.shape}")
            norm = math.sqrt(b.dot(b))  # what np.linalg.norm computes for 1-D b
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"block {j} must be unit norm, |b| = {norm}")
            blocks.append(b)
        self.blocks = tuple(blocks)

    @property
    def s(self) -> int:
        return len(self.blocks)


def flip(x: XsPoint, j: int) -> XsPoint:
    """Negate block j (1-based); an involution, and flips commute."""
    if not 1 <= j <= x.s:
        raise IndexError(f"block index {j} out of range 1..{x.s}")
    blocks = list(x.blocks)
    blocks[j - 1] = -blocks[j - 1]
    return XsPoint(tuple(blocks))


def random_point(s: int, seed) -> XsPoint:
    """Uniform per block (normalized Gaussian)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for j in range(1, s + 1):
        g = rng.normal(size=block_size(j))
        blocks.append(g / np.linalg.norm(g))
    return XsPoint(tuple(blocks))


def retract(raw_blocks) -> XsPoint:
    """Normalize each raw block back onto its sphere."""
    blocks = []
    for j, b in enumerate(raw_blocks, start=1):
        b = np.asarray(b, dtype=np.float64)
        norm = np.linalg.norm(b)
        if norm == 0.0:
            raise ValueError(f"cannot retract zero block {j}")
        blocks.append(b / norm)
    return XsPoint(tuple(blocks))


def to_polys(x: XsPoint, n: int) -> list[Polynomial]:
    """Embed the point as s polynomials of the schedule degrees.

    Block j fills the first 2^(j-1)+1 graded-lex coefficients of the degree
    D_j basis; the remaining coefficients are zero, so each polynomial keeps
    unit coefficient norm and the product degree is at most sum(D_j).
    """
    return [block_poly(x, j, n) for j in range(1, x.s + 1)]


def block_poly(x: XsPoint, j: int, n: int) -> Polynomial:
    """Polynomial j of to_polys(x, n) alone."""
    basis = monomial_basis(n, degree_schedule(n, x.s)[j - 1])
    if len(basis) < block_size(j):
        raise ValueError(f"basis dim {len(basis)} cannot host block of size {block_size(j)}")
    coeffs = np.zeros(len(basis))
    coeffs[: block_size(j)] = x.blocks[j - 1]
    return Polynomial(basis, coeffs)
