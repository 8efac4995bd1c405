"""Reference implementations the tests hold polypart's kernels to.

No `src/` path calls these. `eval_poly`, `grad` and `restrict_to_line` are
the one-point forms of the batched kernels, compared within a tolerance.
`monomial_table_py` and `line_tensor_py` spell out, in Python floats, the
multiplication order `polyalg` fixes, so the kernels must match them bit for
bit. `restrict_to_line_exact` expands a restriction in exact rationals, and
`sturm_chain_exact` and `sturm_count_exact` give a row's Sturm chain and its
count of distinct real roots in them, `sign_exact` its sign at a float, and
`bracket_holds_root` whether it changes sign across a float bracket.
`xs_dim`, `region_measure`, `distance_to` and `f_delta_v` are closed forms
and functionals only the tests read.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from polypart.cells import w_index
from polypart.mollifier import mollified_table
from polypart.polyalg import MonomialBasis, Polynomial, monomial_basis
from polypart.spectrum import wht_table
from polypart.varieties import LineSampler, PlaneSampler, VarietySpec, _span, _span_measure


def from_terms(n: int, terms: dict[tuple[int, ...], float], D: int | None = None) -> Polynomial:
    """Build a Polynomial from {exponent tuple: coefficient}."""
    if D is None:
        D = max((sum(e) for e in terms), default=0)
    basis = monomial_basis(n, D)
    coeffs = np.zeros(len(basis))
    index = {m: i for i, m in enumerate(basis.monomials)}
    for expo, c in terms.items():
        if len(expo) != n:
            raise ValueError(f"exponent {expo} has {len(expo)} entries, expected {n}")
        coeffs[index[tuple(expo)]] += c
    return Polynomial(basis, coeffs)


def _power_table(x: np.ndarray, D: int) -> np.ndarray:
    # (n, D+1) with pt[i, e] = x_i**e
    pt = np.empty((x.shape[0], D + 1))
    pt[:, 0] = 1.0
    for e in range(1, D + 1):
        pt[:, e] = pt[:, e - 1] * x
    return pt


def eval_poly(p: Polynomial, x) -> float:
    """Evaluate p at a point of R^n by direct monomial summation."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    pt = _power_table(x, p.basis.D)
    mono = np.prod(pt[np.arange(p.n), p.basis.exponents], axis=1)
    return float(mono @ p.coeffs)


def grad(p: Polynomial, x) -> np.ndarray:
    """Gradient of p at x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    pt = _power_table(x, p.basis.D)
    exps = p.basis.exponents
    out = np.zeros(p.n)
    idx = np.arange(p.n)
    for i in range(p.n):
        ei = exps[:, i]
        shifted = exps.copy()
        shifted[:, i] = np.maximum(ei - 1, 0)
        mono = np.prod(pt[idx, shifted], axis=1)
        out[i] = np.sum(np.where(ei > 0, p.coeffs * ei * mono, 0.0))
    return out


def restrict_to_line(p: Polynomial, point, direction) -> np.ndarray:
    """Coefficients (ascending) of the univariate t -> p(point + t*direction)."""
    a = np.asarray(point, dtype=np.float64)
    u = np.asarray(direction, dtype=np.float64)
    if a.shape != (p.n,) or u.shape != (p.n,):
        raise ValueError("line point/direction dimension mismatch")
    out = np.zeros(p.basis.D + 1)
    for expo, c in zip(p.basis.monomials, p.coeffs):
        if c == 0.0:
            continue
        conv = np.array([c])
        for i, e in enumerate(expo):
            if e == 0:
                continue
            # coefficients of (a_i + u_i t)^e, ascending
            r = np.arange(e + 1)
            binom = np.array([math.comb(e, int(k)) for k in r], dtype=np.float64)
            fac = binom * a[i] ** (e - r) * u[i] ** r
            conv = np.convolve(conv, fac)
        out[: len(conv)] += conv
    return out


def _powers_py(x: float, D: int) -> list[float]:
    # [x^0, ..., x^D]: x^1 is x itself, each later power the last one times x
    pw = [1.0, x][: D + 1]
    for _ in range(2, D + 1):
        pw.append(pw[-1] * x)
    return pw


def monomial_table_py(X: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """monomial_matrix in Python floats: x^e by repeated multiplication, each
    monomial the product of its coordinates' powers taken left to right."""
    out = np.empty((len(X), len(basis)))
    for row, x in enumerate(X.tolist()):
        pws = [_powers_py(xi, basis.D) for xi in x]
        for col, expo in enumerate(basis.monomials):
            v = pws[0][expo[0]]
            for i in range(1, basis.n):
                v *= pws[i][expo[i]]
            out[row, col] = v
    return out


def line_tensor_py(a: list[float], u: list[float], basis: MonomialBasis) -> list[list[float]]:
    """One line's rows of line_restriction_tensor in Python floats: x^e is its
    parent x^(e - e_i), i the last coordinate where e is nonzero, times
    (a_i + u_i t), coefficient r being parent_r * a_i + parent_(r-1) * u_i,
    each padded with zeros to D + 1."""
    rows = {}
    for expo in basis.monomials:
        nz = [k for k, e in enumerate(expo) if e]
        if not nz:
            rows[expo] = [1.0]
            continue
        i = nz[-1]
        parent = rows[expo[:i] + (expo[i] - 1,) + expo[i + 1 :]]
        row = [c * a[i] for c in parent] + [0.0]
        for r in range(1, len(row)):
            row[r] += parent[r - 1] * u[i]
        rows[expo] = row
    return [row + [0.0] * (basis.D + 1 - len(row)) for row in rows.values()]


def restrict_to_line_exact(p: Polynomial, point, direction, absolute: bool = False) -> list[Fraction]:
    """Ascending coefficients of t -> p(point + t*direction) in exact
    rationals, from the float inputs as given. With absolute, every
    coefficient and every point and direction entry is replaced by its
    magnitude: the sums a rounding-error bound is stated against."""
    mag = abs if absolute else (lambda v: v)
    a = [mag(Fraction(float(v))) for v in point]
    u = [mag(Fraction(float(v))) for v in direction]
    out = [Fraction(0)] * (p.basis.D + 1)
    for expo, c in zip(p.basis.monomials, p.coeffs):
        poly = [mag(Fraction(float(c)))]
        for i, e in enumerate(expo):
            for _ in range(e):  # poly *= a_i + u_i t
                poly = [x * a[i] + y * u[i] for x, y in zip(poly + [0], [0] + poly)]
        for k, v in enumerate(poly):
            out[k] += v
    return out


def sturm_chain_exact(asc) -> list[list[Fraction]]:
    """Sturm chain of the ascending coefficients asc (not all zero) in exact
    rationals, each element descending: the row, its derivative, then minus
    each remainder, ending at a constant or, for a row with a repeated root,
    at the gcd of the row and its derivative."""
    f = [Fraction(float(c)) for c in asc[::-1]]
    while f[0] == 0:
        f.pop(0)
    chain = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
    while len(chain[-1]) > 1:
        r, g = list(chain[-2]), chain[-1]
        while len(r) >= len(g):
            q = r[0] / g[0]
            r = [a - q * b for a, b in zip(r[1:], g[1:] + [0] * (len(r) - len(g)))]
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        chain.append([-c for c in r])
    return [e for e in chain if e]  # a constant row's derivative is empty


def sturm_count_exact(asc) -> int:
    """Number of distinct real roots of the ascending coefficients asc (not
    all zero): V(-inf) - V(+inf) of sturm_chain_exact, read from the leading
    coefficients and degrees of its elements."""
    chain = sturm_chain_exact(asc)
    at_plus = [e[0] > 0 for e in chain]
    at_minus = [(e[0] > 0) == (len(e) % 2 == 1) for e in chain]

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(at_minus) - changes(at_plus)


def sign_exact(asc, t: float) -> int:
    """Sign of the ascending float coefficients asc at the float t, in exact rationals."""
    v, t = Fraction(0), Fraction(float(t))
    for c in asc[::-1]:
        v = v * t + Fraction(float(c))
    return (v > 0) - (v < 0)


def bracket_holds_root(asc, r: float, h: float) -> bool:
    """Whether the ascending float coefficients asc take opposite exact signs
    at the floats r - h and r + h, as rounded: the bracket between them then
    holds a root of odd multiplicity."""
    return sign_exact(asc, r - h) * sign_exact(asc, r + h) == -1


def xs_dim(s: int) -> int:
    """Dimension of the sphere product X_s: block j contributes 2^(j-1)."""
    return 2**s - 1


def region_measure(spec: VarietySpec, R: float) -> float:
    """k-volume of the sampled portion of the variety inside B_R (closed form)."""
    span = _span(spec, R)
    return 0.0 if span is None else _span_measure(spec, span)


def distance_to(spec: VarietySpec, X) -> np.ndarray:
    """Exact distance from each row of X to the variety."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    s = spec.sampler
    if isinstance(s, LineSampler):
        d = X - s.point[None, :]
        proj = d @ s.direction
        return np.linalg.norm(d - proj[:, None] * s.direction[None, :], axis=1)
    if isinstance(s, PlaneSampler):
        d = X - s.point[None, :]
        coords = d @ s.frame.T
        return np.linalg.norm(d - coords @ s.frame, axis=1)
    d = X - s.center[None, :]
    u, v = s.frame
    pu = d @ u
    pv = d @ v
    inplane = np.hypot(pu, pv)
    # the out-of-plane part taken directly: |d|^2 - inplane^2 cancels to
    # rounding noise whose square root reaches 1e-8 on the circle itself
    perp = np.linalg.norm(d - pu[:, None] * u - pv[:, None] * v, axis=1)
    return np.hypot(inplane - s.radius, perp)


def f_delta_v(Gamma, pvec, v, cfg) -> float:
    """Smoothed balance functional at nonzero frequency v: the Walsh-Hadamard
    transform of the mollified count table at v. `mollified_table` builds the
    solver's LevelFrame on the largest basis of its polynomials, so this
    rounds exactly as a smooth annealing level does."""
    vi = w_index(v)
    if vi == 0:
        raise ValueError("v must be a nonzero frequency")
    return float(wht_table(mollified_table(Gamma, pvec, cfg))[vi])
