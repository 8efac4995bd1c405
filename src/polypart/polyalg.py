"""Dense multivariate polynomials on a graded-lexicographic monomial basis.

Coefficient vectors are aligned to the basis ordering: total degree first,
then lexicographic with x1 > x2 > ... > xn, so the constant monomial comes
first and the degree-1 monomials follow in coordinate order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# basis_dim results must stay usable as array sizes / int64 indices
_DIM_LIMIT = 2**62
# largest basis a MonomialBasis enumerates: every table built on one has a
# column per monomial, so a degree-1023 basis in R^2 (524,800 monomials) would
# need gigabytes on a thousand points
MAX_BASIS_DIM = 4096


def _grlex_exponents(n: int, D: int) -> list[tuple[int, ...]]:
    def parts(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    out = []
    for total in range(D + 1):
        out.extend(parts(total, n))
    return out


class MonomialBasis:
    """All monomials of degree <= D in n variables, graded-lex ordered."""

    def __init__(self, n: int, D: int):
        dim = basis_dim(n, D)
        if dim > MAX_BASIS_DIM:
            raise ValueError(
                f"degree {D} in R^{n} has {dim} monomials; at most {MAX_BASIS_DIM} are supported"
            )
        self.n = n
        self.D = D
        self.monomials = _grlex_exponents(n, D)
        self.exponents = np.array(self.monomials, dtype=np.int64)
        self.exponents.flags.writeable = False  # cached instances are shared
        assert len(self.monomials) == dim

    def __len__(self) -> int:
        return len(self.monomials)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialBasis) and (self.n, self.D) == (other.n, other.D)

    def __hash__(self) -> int:
        return hash((self.n, self.D))

    def __repr__(self) -> str:
        return f"MonomialBasis(n={self.n}, D={self.D}, dim={len(self)})"


@functools.lru_cache(maxsize=64)
def monomial_basis(n: int, D: int) -> MonomialBasis:
    """Shared MonomialBasis per (n, D); the enumeration runs once."""
    return MonomialBasis(n, D)


def basis_dim(n: int, D: int) -> int:
    """Dimension of the space of polynomials of degree <= D on R^n: C(n+D, n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if D < 0:
        raise ValueError(f"need D >= 0, got {D}")
    val = math.comb(n + D, n)
    if val > _DIM_LIMIT:
        raise OverflowError(f"basis dimension C({n + D},{n}) = {val} exceeds {_DIM_LIMIT}")
    return val


def degree_schedule(n: int, s: int) -> list[int]:
    """Smallest degrees D_1..D_s with basis_dim(n, D_j) > 2^(j-1).

    The schedule is nondecreasing and the total sum grows like 2^(s/n). It
    owns the basis budget of every solve: ValueError, with a message that
    starts with "s", unless s >= 1 and the last (largest) block's basis has
    at most MAX_BASIS_DIM monomials. That block needs more than 2^(s-1), so
    a too-large s is rejected before the schedule is walked.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s > (MAX_BASIS_DIM - 1).bit_length():
        raise ValueError(
            f"s {s} needs a block with more than 2^{s - 1} monomials; "
            f"at most {MAX_BASIS_DIM} are supported"
        )
    out = []
    D = 1
    for j in range(1, s + 1):
        need = 2 ** (j - 1)
        while basis_dim(n, D) <= need:
            D += 1
        out.append(D)
    dim = basis_dim(n, D)
    if dim > MAX_BASIS_DIM:
        raise ValueError(
            f"s {s} needs a degree-{D} block with {dim} monomials in R^{n}; "
            f"at most {MAX_BASIS_DIM} are supported"
        )
    return out


@dataclass
class Polynomial:
    """Coefficient vector over a MonomialBasis."""

    basis: MonomialBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (len(self.basis),):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match basis dim {len(self.basis)}"
            )

    @property
    def n(self) -> int:
        return self.basis.n

    def degree(self) -> int:
        """Largest total degree carrying a nonzero coefficient (0 for the zero polynomial)."""
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return 0
        return int(self.basis.exponents[nz].sum(axis=1).max())

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _powers(x: np.ndarray, D: int) -> np.ndarray:
    """x ** [0..D] on a new last axis, by pt[..., e] = pt[..., e-1] * x.

    Each product is correctly rounded (IEEE 754) and the order is fixed, so
    the table has the same bits on every host; a libm or SIMD pow need not.
    """
    pt = np.empty(x.shape + (D + 1,))
    pt[..., 0] = 1.0
    if D:
        pt[..., 1] = x
    for e in range(2, D + 1):
        np.multiply(pt[..., e - 1], x, out=pt[..., e])
    return pt


def monomial_matrix(X: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Every monomial of `basis` at each row of X, shape (m, n) -> (m, dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != basis.n:
        raise ValueError(f"points have shape {X.shape}, expected (m, {basis.n})")
    pt = _powers(X, basis.D)
    out = pt[:, 0, basis.exponents[:, 0]]
    for i in range(1, basis.n):
        out *= pt[:, i, basis.exponents[:, i]]  # left to right, as np.prod rounds
    return out


def eval_poly_many(p: Polynomial, X: np.ndarray) -> np.ndarray:
    """Evaluate p at each row of X, shape (m, n) -> (m,)."""
    return monomial_matrix(X, p.basis) @ p.coeffs


def grad_bound(basis: MonomialBasis, R: float) -> float:
    """Upper bound on |grad Q(x)| over unit-coefficient Q on `basis` and |x| <= R.

    Crude triangle-inequality bound sqrt(dim)*n*D*max(1,R)^(D-1); correctness
    matters here, tightness only slows downstream threshold schedules.
    """
    if R < 0:
        raise ValueError(f"need R >= 0, got {R}")
    if basis.D == 0:
        return 0.0
    return math.sqrt(len(basis)) * basis.n * basis.D * max(1.0, R) ** (basis.D - 1)


def check_reach(X: np.ndarray, D: int, name: str, index=None) -> None:
    """ValueError, with a message that starts with name[i], for the first row
    of X whose reach r = 1 + max |coordinate| has r^D > 2^512; i is the row,
    or its entry in index. Every monomial of degree <= D at the row, and
    every coefficient of its restriction to a line through it with a unit
    direction, is at most r^D; half the float exponent range leaves the
    solvers' sums and weights of such values room to stay finite."""
    reach = 1.0 + np.abs(X).max(axis=1)
    far = np.flatnonzero(D * np.log2(reach) > 512)
    if len(far):
        i = far[0]
        raise ValueError(
            f"{name}[{i if index is None else index[i]}]: a coordinate of magnitude "
            f"{reach[i] - 1.0:.3g} is too large for degree {D}; 1 + max |coordinate| "
            f"must be at most {2.0 ** (512 / D):.4g}"
        )


def line_restriction_tensor(basis: MonomialBasis, A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The restriction of every monomial of `basis` to the m lines given by the
    rows of A and U, shape (dim, m·(D+1)): row i holds monomial i's ascending
    coefficients in t -> (A_k + t U_k)^e_i, line by line.

    The row of x^e is the row of its parent x^(e - e_i), with i the last
    coordinate where e is nonzero, times (A_i + U_i t): coefficient r is
    parent_r · A_i + parent_(r-1) · U_i, one multiply-add. Graded-lex order
    lists every parent before its children, so the rows fill in order from
    the constant monomial's 1.0.
    """
    A = np.asarray(A, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    out = np.zeros((len(basis), A.shape[0], basis.D + 1))
    out[0, :, 0] = 1.0
    row_of = {e: row for row, e in enumerate(basis.monomials)}
    for row, expo in enumerate(basis.monomials[1:], start=1):
        i = max(k for k, e in enumerate(expo) if e)
        d = sum(expo)
        parent = out[row_of[expo[:i] + (expo[i] - 1,) + expo[i + 1 :]], :, :d]
        np.multiply(parent, A[:, i, None], out=out[row, :, :d])
        out[row, :, 1 : d + 1] += parent * U[:, i, None]
    return out.reshape(len(basis), -1)


def restrict_to_line_batch(p: Polynomial, A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Ascending coefficients of t -> p(A_k + t U_k) for the m lines given by
    the rows of A and U, shape (m, D+1): one product of p's coefficients with
    line_restriction_tensor, whose last bits follow the BLAS kernel, as
    eval_poly_many's matrix-vector product does."""
    return (p.coeffs @ line_restriction_tensor(p.basis, A, U)).reshape(-1, p.basis.D + 1)
