"""Sign-condition cells of a polynomial tuple and per-variety cell entry.

A sign vector w assigns bit w_j = 0 where P_j > 0 and w_j = 1 where P_j < 0;
points with any |P_j| at or below tolerance sit on the boundary and belong to
no cell. Cell entry is decided by sampling for general varieties and exactly
for lines from the real roots of the univariate restrictions: candidate
roots, in closed form at degrees 1 to 3 and as companion-matrix eigenvalues
above, each certified by a sign change beyond its rounding bound across a
bracket around it, against a count of distinct real roots: the
discriminant's sign at degrees 2 and 3, and above it the real eigenvalues,
counted when Smith's inclusion disks around all the eigenvalues are
disjoint. An uncertain sign or overlapping disks reject the row, and every
rejected row is isolated exactly in integers. A line's cells follow
from root parity rather than from evaluating the blocks at the gaps: each
restriction gives the line's bit at t -> -inf from its trimmed leading
coefficient, and crossing a root of P_j flips bit j.
Certified roots are simple; an exactly isolated root comes once per unit of
its multiplicity, so a cluster flips the bit only for an odd count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polyalg import (
    Polynomial, _powers, basis_dim, check_reach, eval_poly_many, line_restriction_tensor,
    restrict_to_line_batch,
)
from .varieties import LineSampler, UnsupportedVarietyError, VarietySpec, sample_in_ball

DEFAULT_SIGN_TOL_SCALE = 1e-9
MAX_S = 20  # most polynomials a cell table (of size 2^s) supports
# most floats the line-restriction tensors of one CountFrame hold: 64 MiB
MAX_TENSOR_FLOATS = 2**23
_DEGENERATE_TOL = 1e-12
_TRIM_TOL = 1e-14  # a coefficient at or below this times its row's largest is dropped


class RootIsolationError(RuntimeError):
    """Raised when a row to isolate has a non-finite coefficient."""


def w_index(w) -> int:
    """Sign vector (w_1, ..., w_s) -> table index with w_1 as the low bit."""
    idx = 0
    for j, bit in enumerate(w):
        if bit not in (0, 1):
            raise ValueError(f"sign vector bits must be 0/1, got {w}")
        idx |= bit << j
    return idx


def index_w(idx: int, s: int) -> tuple[int, ...]:
    return tuple((idx >> j) & 1 for j in range(s))


@dataclass
class CellCounts:
    """Nonnegative table over all 2^s sign vectors."""

    s: int
    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table)
        if self.table.shape != (2**self.s,):
            raise ValueError(f"table must have 2^{self.s} entries, got {self.table.shape}")

    @classmethod
    def zeros(cls, s: int) -> "CellCounts":
        return cls(s, np.zeros(2**s, dtype=np.int64))

    def __getitem__(self, w):
        return self.table[w_index(w)].item()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellCounts)
            and self.s == other.s
            and np.array_equal(self.table, other.table)
        )


@dataclass
class SamplingConfig:
    """Ball radius, per-variety sample count (None = density default), seed."""

    R: float = 4.0
    count: int | None = None
    seed: int | object = 0

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"need a finite ball radius R > 0, got {self.R}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"need count >= 1 or None, got {self.count}")


def _auto_count(spec: VarietySpec, R: float, product_degree: int) -> int:
    base = math.ceil(64 * (R * product_degree + 1))
    if spec.k > 1:
        base = min(base * 16 ** (spec.k - 1), 100_000)
    return base


def _sign_tol(p: Polynomial) -> float:
    return DEFAULT_SIGN_TOL_SCALE * p.coeff_norm()


def pack_signs(cols, tols) -> tuple[np.ndarray, np.ndarray]:
    """Table index per point plus the interior mask, from s value columns.

    cols[j] holds P_j at the m points. Bit j of the index is set where
    cols[j] < 0; a point is interior when every |cols[j]| exceeds tols[j].
    Comparisons, integer and boolean operations only, so the packing is exact.
    """
    idx = np.zeros(len(cols[0]), dtype=np.int64)
    interior = np.ones(len(cols[0]), dtype=bool)
    for j, (v, tol) in enumerate(zip(cols, tols, strict=True)):
        interior &= np.abs(v) > tol
        idx |= (v < 0).astype(np.int64) << j
    return idx, interior


def sign_vector_many(pvec, X):
    """Batch sign vectors as table indices plus a boundary mask."""
    X = np.asarray(X, dtype=np.float64)
    cols = [eval_poly_many(p, X) for p in pvec]
    idx, interior = pack_signs(cols, [_sign_tol(p) for p in pvec])
    return idx, ~interior


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of an integer array, ascending: np.unique by one
    sort and an adjacent-difference mask."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _entry_table(owners: np.ndarray, idx: np.ndarray, s: int) -> np.ndarray:
    """Count of owners entering each of the 2^s cells, from every (owner,
    table index) sighting: each distinct pair counts once."""
    entered = _distinct((owners << s) | idx) & (2**s - 1)
    return np.bincount(entered, minlength=2**s).astype(np.int64)


def check_line_reach(Gamma, D) -> None:
    """polyalg.check_reach on the foot points of Gamma's lines at degree D:
    ValueError, with a message that starts with varieties[i], for the first
    line i whose restrictions could overflow."""
    index = [i for i, g in enumerate(Gamma) if isinstance(g.sampler, LineSampler)]
    if index:
        check_reach(np.stack([Gamma[i].sampler.point for i in index]), D, "varieties", index)


def check_line_tensors(Gamma, degrees) -> None:
    """check_line_reach at the largest degree, then ValueError, with a
    message that starts with "s", when the line-restriction tensors of a
    tuple with these block degrees on the lines of Gamma would hold more
    than MAX_TENSOR_FLOATS floats: a CountFrame keeps one (dim, m·(D+1))
    tensor per distinct degree D for its m lines. Gamma is nonempty;
    partition_varieties applies it before building any basis or frame."""
    check_line_reach(Gamma, max(degrees, default=0))
    m = sum(isinstance(g.sampler, LineSampler) for g in Gamma)
    floats = m * sum(basis_dim(Gamma[0].n, D) * (D + 1) for D in set(degrees))
    if floats > MAX_TENSOR_FLOATS:
        raise ValueError(
            f"s {len(degrees)} on {m} lines needs {floats * 8 / 2**20:.1f} MiB of "
            f"line-restriction tensors; at most {MAX_TENSOR_FLOATS * 8 // 2**20} MiB are supported"
        )


class CountFrame:
    """A family's count table minus the polynomials: with exact_lines its
    lines as one stacked frame, and a fixed sample in B_R of every other
    variety i, on seed (sampling.seed, i), of sampling.count points or the
    density default at product degree D. column(p) is one polynomial's part
    of the table, and table(cols) the 2^s table.

    tensors maps each block basis the frame has served to its
    line_restriction_tensor and its degenerate scale, filled on first use, so
    a column restricts p to every line by one matrix product."""

    def __init__(self, Gamma, sampling, D, exact_lines=False):
        exact = [exact_lines and isinstance(g.sampler, LineSampler) for g in Gamma]
        lines = [g for g, e in zip(Gamma, exact) if e]
        self.lines = line_frames(lines) if lines else None
        self.tensors = {}
        R, count = sampling.R, sampling.count
        samples = [
            sample_in_ball(g, R, count or _auto_count(g, R, D), (sampling.seed, i))
            for i, g in enumerate(Gamma)
            if not exact[i]
        ]
        # empty samples are dropped: a family without any does no sampled work
        self.samples = [pts for pts in samples if len(pts)]
        self.owners = np.repeat(np.arange(len(self.samples)), [len(x) for x in self.samples])

    def column(self, p: Polynomial):
        """p's restriction to the lines, its values at the samples (one
        variety at a time, so each rounds as alone) and its sign tolerance."""
        restriction = line_restriction_roots(*self.lines, p, self.tensors) if self.lines else None
        vals = [eval_poly_many(p, x) for x in self.samples]
        return restriction, np.concatenate(vals) if vals else None, _sign_tol(p)

    def table(self, cols) -> np.ndarray:
        restrictions, vals, tols = zip(*cols)
        out = np.zeros(2 ** len(cols), dtype=np.int64)
        if self.lines:
            out += cell_table_from_roots(restrictions)
        if self.samples:
            idx, interior = pack_signs(vals, tols)
            out += _entry_table(self.owners[interior], idx[interior], len(cols))
        return out


def counts(
    Gamma: list[VarietySpec],
    pvec: list[Polynomial],
    sampling: SamplingConfig,
    exact_lines: bool = False,
) -> CellCounts:
    """Per-cell counts of varieties entering each sign cell.

    With exact_lines=True, line varieties are counted by exact root isolation
    over the whole line instead of sampling, after check_line_tensors; other
    kinds always sample.
    """
    s = len(pvec)
    if s > MAX_S:
        raise ValueError(f"cell tables support at most {MAX_S} polynomials, got {s}")
    if exact_lines and Gamma:
        check_line_tensors(Gamma, [p.basis.D for p in pvec])
    # a frame of its own: a solver's self-check shares no cache with its evaluator
    frame = CountFrame(Gamma, sampling, sum(p.degree() for p in pvec), exact_lines)
    return CellCounts(s, frame.table([frame.column(p) for p in pvec]))


def point_counts(points, pvec) -> CellCounts:
    """Counts of points per sign cell; boundary points count nowhere."""
    s = len(pvec)
    points = np.asarray(points, dtype=np.float64)
    table = np.zeros(2**s, dtype=np.int64)
    if len(points):
        idx, boundary = sign_vector_many(pvec, points)
        table += np.bincount(idx[~boundary], minlength=2**s).astype(np.int64)
    return CellCounts(s, table)


# ---------------------------------------------------------------------------
# Exact cell enumeration along lines via certified real root isolation.

# The exact fallback for the rows certification rejects. A float row is a
# polynomial with dyadic rational coefficients; scaled to integers, its
# square-free parts, their Sturm chains and their signs at dyadic points p/2^K
# are exact in Python integers. A polynomial here is a list of ints,
# descending. A part is known up to a constant factor, and a chain element up
# to a positive one, which keeps its signs.


def _primitive(f):
    """f with its leading zeros dropped, divided by the positive gcd of its coefficients."""
    while f and f[0] == 0:
        f = f[1:]
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _derivative(f):
    return [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]


def _divide(f, g):
    """Pseudo-division by g, leading coefficient nonzero: (q, r) with
    |g_0|^k f = q g + r for some k >= 0 and r of lower degree than g."""
    lead, q, r = abs(g[0]), [], f
    while len(r) >= len(g):
        c = r[0] if g[0] > 0 else -r[0]
        q = [lead * x for x in q] + [c]
        r = [lead * a - c * b for a, b in zip(r[1:], g[1:] + [0] * (len(r) - len(g)))]
    return q, r


def _exact_sturm_chain(f):
    """f, f', then minus each next remainder, made primitive, to the last
    nonzero one: Sturm's chain of f, ending at gcd(f, f')."""
    chain = [f, _primitive(_derivative(f))]
    while len(chain[-1]) > 1:
        r = _primitive(_divide(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _squarefree_parts(f):
    """The square-free factorization of f, of degree >= 1, as [(part,
    multiplicity)]: with g_0 = f and g_i = gcd(g_(i-1), g_(i-1)'), the
    quotient h_i = g_(i-1)/g_i has each root of multiplicity at least i once,
    and h_i/h_(i+1), where not constant, is the part of multiplicity i."""
    g = [f]
    while len(g[-1]) > 1:
        g.append(_primitive(_exact_sturm_chain(g[-1])[-1]))
    h = [_primitive(_divide(a, b)[0]) for a, b in zip(g, g[1:])] + [[1]]
    pairs = enumerate(zip(h, h[1:]), 1)
    return [(_primitive(_divide(a, b)[0]), i) for i, (a, b) in pairs if len(a) > len(b)]


def _exact_variations(chain, p, K) -> tuple[int, bool]:
    """Sign variations of the chain at p/2^K, zeros skipped, each sign that of
    2^(K deg g) g(p/2^K) by Horner in integers, and whether p/2^K is a root of
    the chain's first element. V(a) - V(b) is the number of distinct roots in
    (a, b]."""
    vals = []
    for g in chain:
        v = 0
        for i, c in enumerate(g):
            v = v * p + (c << (K * i))
        vals.append(v)
    signs = [v > 0 for v in vals if v]
    return sum(a != b for a, b in zip(signs, signs[1:])), vals[0] == 0


def _part_roots(f) -> list[float]:
    """The real roots of the square-free f, of degree >= 1, ascending: Sturm
    bisection from the Cauchy bound 2^k until each bracket (a, b] holds one
    root and is at most 2^-41*max(1, min(|a|, |b|)) wide, then the float
    nearest its center. A bracket of width 1 at scale 2^-K moves to 2^-(K+1).
    A bisection point that is a root comes back exactly, as the bracket
    [mid, mid], and the bracket left of it counts only the roots below it."""
    if len(f) == 2:
        return [-f[1] / f[0]]  # a quotient of ints, correctly rounded
    chain = _exact_sturm_chain(f)
    k = max(1, max(abs(c).bit_length() for c in f[1:]) - abs(f[0]).bit_length() + 2)
    lo, hi = -(1 << k), 1 << k
    work = [(lo, hi, 0, _exact_variations(chain, lo, 0)[0], _exact_variations(chain, hi, 0)[0])]
    roots = []
    while work:
        a, b, K, va, vb = work.pop()
        if va - vb == 1 and (b - a) << 41 <= max(1 << K, min(abs(a), abs(b))):
            roots.append((a + b) / (1 << (K + 1)))
        elif va > vb:
            if b - a == 1:
                a, b, K = 2 * a, 2 * b, K + 1
            mid = (a + b) >> 1
            vm, z = _exact_variations(chain, mid, K)  # the left half first:
            work += [(mid, b, K, vm, vb)] + [(mid, mid, K, 1, 0)] * z + [(a, mid, K, va, vm + z)]
    return roots


def _exact_roots(P: np.ndarray):
    """Every real root of the finite rows of one degree d >= 1 (descending,
    leading coefficient nonzero), taken as the exact dyadic rationals they
    are: (rows, roots), by row and ascending within a row. Each root comes
    once per unit of its multiplicity, within 0.5e-12*max(1, |root|)."""
    rows, roots = [], []
    for i, row in enumerate(P.tolist()):
        ratios = [c.as_integer_ratio() for c in row]
        den = max(d for _, d in ratios)  # every denominator is a power of 2
        f = _primitive([n * (den // d) for n, d in ratios])
        t = sorted(r for part, mult in _squarefree_parts(f) for r in _part_roots(part) * mult)
        rows += [i] * len(t)
        roots += t
    return np.array(rows, dtype=np.int64), np.array(roots, dtype=np.float64)


def _as_rows(coeff_rows) -> np.ndarray:
    """(m, w) ascending coefficients from an array or a zero-padded list of rows."""
    if isinstance(coeff_rows, np.ndarray) and coeff_rows.ndim == 2:
        return coeff_rows.astype(np.float64, copy=False)
    rows = [np.atleast_1d(np.asarray(r, dtype=np.float64)) for r in coeff_rows]
    C = np.zeros((len(rows), max([1] + [len(r) for r in rows])))
    for i, r in enumerate(rows):
        C[i, : len(r)] = r
    return C


def _companion_roots(P: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of the rows of one degree d >= 1,
    complex (m, d): _disk_count's centres, the real ones the candidates."""
    m, d = P.shape[0], P.shape[1] - 1
    comp = np.zeros((m, d, d))
    comp[:, 0] = -P[:, 1:] / P[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp).astype(np.complex128)


def _quadratic_roots(a, b, c):
    """Both roots of a t^2 + b t + c by q = -(b + sign(b) sqrt(b^2 - 4ac))/2,
    as q/a and c/q: NaN where they are not real."""
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return q / a, c / q


def _closed_form_roots(P: np.ndarray) -> np.ndarray:
    """Real roots of the rows of degree 2 or 3 by formula, as (m, d) with a
    non-finite entry in place of each missing one.

    Degree 2 takes the stable quadratic formula. Degree 3 takes one real root,
    by Cardano's formula when the depressed cubic has one real root and as the
    largest in magnitude by the trigonometric formula when it has three, then
    one Newton step on the row; the stable quadratic formula on the row with
    that root deflated gives the other two.

    The formulas run with floating-point warnings off: a row with no real root
    or a multiple one divides by zero or takes the root of a negative number,
    and the non-finite or wrong candidates it gets are certification's to reject.
    """
    with np.errstate(all="ignore"):
        if P.shape[1] == 3:
            return np.stack(_quadratic_roots(*P.T), axis=1)
        a, b, c, d = P.T
        B, C, D = b / a, c / a, d / a
        p = C - B * B / 3.0  # x^3 + p x + q at t = x - B/3
        q = (2.0 * B * B * B - 9.0 * B * C + 27.0 * D) / 27.0
        disc = 0.25 * q * q + p * p * p / 27.0
        phi = np.arccos(np.clip(1.5 * q / p * np.sqrt(-3.0 / p), -1.0, 1.0)) / 3.0
        three = 2.0 * np.sqrt(-p / 3.0)[:, None] * np.cos(
            phi[:, None] - 2.0 * np.pi / 3.0 * np.arange(3)
        ) - (B / 3.0)[:, None]
        big = three[np.arange(len(P)), np.abs(three).argmax(axis=1)]
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))
        t = np.where(disc < 0.0, big, u - p / (3.0 * u) - B / 3.0)
        step = (((a * t + b) * t + c) * t + d) / ((3.0 * a * t + 2.0 * b) * t + c)
        t = np.where(np.isfinite(step), t - step, t)
        # the row is (t - root)(a t^2 + beta t + gamma); deflating from the
        # constant term is stable for a root above the geometric mean of the
        # roots' magnitudes, from the leading coefficient for one below it
        g = -d / t
        back = np.stack(_quadratic_roots(a, (g - c) / t, g), axis=1)
        beta = b + a * t
        fwd = np.stack(_quadratic_roots(a, beta, c + beta * t), axis=1)
        large = np.abs(a * t * t * t) >= np.abs(d)
        return np.column_stack([t, np.where(large[:, None], back, fwd)])


def _rounding_bound(k: int, mag, reach=1.0):
    """gamma_k*mag + 2^-1000*reach, gamma_k = k*u/(1 - k*u), u = 2^-53: bounds
    a rounding error of at most gamma_(k-2) times the exact value of mag,
    given mag computed to a relative error below 2/k; the spare two cover
    that and the product. reach bounds what later products make of an
    absolute error: the second term covers underflow and the scaling of a
    row to max |coef| below 1."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53) * mag + 2.0**-1000 * reach


def _horner(Q: np.ndarray, x: np.ndarray):
    """The rows of Q (descending, max |coef| below 1) at the points x, real
    or complex, by Horner, with Higham's running error bounds. The partial
    sums y_i err by |e_i| <= |x||e_(i+1)| + a|x||y_(i+1)| + b|y_i|, a and b
    bounding the relative errors of a product and a sum: u and u in reals, so
    |e_0| <= 2u*mu, mu the sum of |y_i||x|^i with y_d counted half. In
    complex numbers a sum errs by at most u and a product by sqrt(2)*gamma_2
    (Higham, Lemma 3.5), so |e_0| <= 2(sqrt(2)*gamma_2 + u)*mu <= gamma_8*mu.
    np.abs of a complex number, a hypot, is within one ulp."""
    v, ax = Q[:, 0], np.abs(x)
    mu = 0.5 * np.abs(v)
    for c in Q[:, 1:].T:
        v = v * x + c
        mu = mu * ax + np.abs(v)
    k = 10 if np.iscomplexobj(x) else 4
    return v, _rounding_bound(k, mu, np.maximum(1.0, ax) ** (Q.shape[1] - 1))


def _discriminant(Q: np.ndarray):
    """The discriminants of the rows of Q (degree 2 or 3, descending, max
    |coef| below 1), with _rounding_bound's error bounds: each term takes at
    most two roundings at degree 2 and eight at degree 3, the sum's included
    (the factors 4 are exact), so the error is at most gamma_2 or gamma_8
    times the sum of the terms' magnitudes."""
    if Q.shape[1] == 3:
        a, b, c = Q.T
        return b * b - 4.0 * a * c, _rounding_bound(4, b * b + np.abs(4.0 * a * c))
    a, b, c, d = Q.T
    terms = (18.0 * a * b * c * d, -4.0 * b * b * b * d, b * c * b * c, -4.0 * a * c * c * c)
    terms += (-27.0 * a * a * d * d,)
    return sum(terms), _rounding_bound(10, sum(np.abs(x) for x in terms))


def _certify(Q: np.ndarray, M: np.ndarray, count: np.ndarray, cand: np.ndarray):
    """Bracket certification of candidate roots cand (m, d), non-finite
    entries standing for none, of the rows Q of one degree d >= 1, descending
    and scaled by powers of two to max |coef| below 1, with Cauchy bounds M
    and certified counts of distinct real roots count (-1 rejects the row).

    A row passes when it has count finite candidates t, its brackets
    [t-h, t+h], h = 0.5e-12*max(1, M), are disjoint, and at both ends of each
    _horner's value exceeds its bound, with opposite signs. Then each bracket
    holds a root of odd multiplicity, so count distinct ones: each holds
    exactly one, simple by either count's proof, and none lies outside them.

    Returns (bad, rows, roots): bad flags the rows that fail, and rows, roots
    list every root of the other rows, by row and ascending within a row."""
    cand = np.sort(np.where(np.isfinite(cand), cand, np.inf), axis=1)
    nreal = np.isfinite(cand).sum(axis=1)
    ri, ki = np.nonzero(np.arange(cand.shape[1]) < nreal[:, None])
    t = cand[ri, ki]
    h = 0.5e-12 * np.maximum(1.0, M[ri])
    lo, hi = t - h, t + h
    with np.errstate(all="ignore"):  # an overflow gives no sign, which rejects the row
        v, err = _horner(Q[np.tile(ri, 2)], np.concatenate([lo, hi]))
        v_lo, v_hi = np.split(np.where(np.abs(v) > err, np.sign(v), 0.0), 2)
    bad = count != nreal
    bad[ri[v_lo * v_hi != -1.0]] = True
    bad[ri[1:][(ri[1:] == ri[:-1]) & (lo[1:] <= hi[:-1])]] = True
    ok = ~bad[ri]
    return bad, ri[ok], t[ok]


def _disk_count(Q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The distinct real roots of each row of Q (degree d >= 1, descending,
    max |coef| below 1) counted by inclusion disks around its companion
    eigenvalues z (complex, (m, d)), or -1 where the disks prove no count.

    Smith's theorem (B. T. Smith, J. ACM 17, 1970): for distinct z_i the
    disks |t - z_i| <= r_i, r_i = d|Q(z_i)|/(|q_0| prod_(j != i) |z_i - z_j|),
    cover the roots of Q, and a connected component of their union made of k
    disks holds k roots, with multiplicity. Pairwise disjoint disks thus hold
    one simple root each. A disk with a non-real centre that misses the real
    axis holds a non-real root. A disk centred on the axis holds a real one:
    the conjugate of its root, a root of the real Q, lies in the same disk,
    which holds one root. A row whose disks are disjoint and all of these two
    kinds has as many distinct real roots as real eigenvalues.

    Each r_i is held above its exact value. _horner gives |Q(z_i)| <= |v| +
    err, and the quotient takes at most 5d + 2 roundings: three for |v| (a
    hypot, within one ulp), one each for the sum and the factor d, four for
    each of the d - 1 distances (a difference and a hypot), d for the
    product of their frexp mantissas and |q_0| (no underflow on a trimmed
    row) and one for the quotient; the ldexp is exact. _rounding_bound with
    k = 5d + 4 covers them; its 2^-1000 term keeps each r_i above 2^-1000,
    so no pair whose distance underflows is disjoint. A pair is disjoint
    when its distance, less _rounding_bound with k = 7 (four roundings, one
    more in r_i + r_j), exceeds r_i + r_j. A zero distance or an overflow
    makes a radius non-finite, which rejects the row.
    """
    m, d = z.shape
    diag = np.eye(d, dtype=bool)
    with np.errstate(all="ignore"):
        v, err = _horner(Q[np.repeat(np.arange(m), d)], z.ravel())
        num = d * (np.abs(v) + err).reshape(m, d)
        dist = np.abs(z[:, :, None] - z[:, None, :])
        frac, expo = np.frexp(np.where(diag, 1.0, dist))
        r = np.ldexp(num / (np.abs(Q[:, :1]) * frac.prod(axis=2)), -expo.sum(axis=2))
        r += _rounding_bound(5 * d + 4, r)
        apart = dist - _rounding_bound(7, dist) > r[:, :, None] + r[:, None, :]
    kinds = np.where(z.imag == 0.0, r < np.inf, np.abs(z.imag) > r).all(axis=1)
    return np.where((apart | diag).all(axis=(1, 2)) & kinds, (z.imag == 0.0).sum(axis=1), -1)


def _certified_roots(P: np.ndarray):
    """_certify's (bad, rows, roots) for the rows of one degree d >= 1 in
    descending order: at degrees 2 and 3 on closed-form candidates, counted
    by the discriminant's sign (none within its bound: a repeated or nearly
    repeated root), and at the other degrees on the real companion
    eigenvalues, counted by _disk_count on all of them."""
    d = P.shape[1] - 1
    Q = np.ldexp(P, -np.frexp(np.abs(P).max(axis=1))[1][:, None])
    M = 1.0 + np.abs(P[:, 1:]).max(axis=1) / np.abs(P[:, 0])
    if d in (2, 3):
        disc, err = _discriminant(Q)
        count = np.where(np.abs(disc) > err, np.where(disc > 0, d, d - 2), -1)
        return _certify(Q, M, count, _closed_form_roots(P))
    z = _companion_roots(P)
    return _certify(Q, M, _disk_count(Q, z), np.where(z.imag == 0.0, z.real, np.inf))


def _degrees(C: np.ndarray) -> np.ndarray:
    """Degree of each row of C with its leading coefficients at or below
    _TRIM_TOL times the row's largest dropped; 0 for an all-zero row."""
    mag = np.abs(C)
    return _trimmed_degrees(mag, mag.max(axis=1))


def _trimmed_degrees(mag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """_degrees of the rows whose coefficient magnitudes are mag, with row maxima top."""
    keep = mag > _TRIM_TOL * top[:, None]
    return np.where(keep.any(axis=1), mag.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1), 0)


def _isolate(C: np.ndarray, deg: np.ndarray):
    """isolate_real_roots_flat of the (m, w) array C with trimmed degrees deg."""
    if not np.isfinite(C).all():
        row = np.argmin(np.isfinite(C).all(axis=1))
        raise RootIsolationError(f"row {row} has a non-finite coefficient")
    owners, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for d in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == d)
        if d == 1:  # _certified_roots' own bits; its checks pass on every trimmed linear row
            owners.append(rows)
            roots.append(-C[rows, 0] / C[rows, 1])
            continue
        P = C[rows, d::-1]
        bad, ri, t = _certified_roots(P)
        owners.append(rows[ri])
        roots.append(t)
        if bad.any():
            ri, t = _exact_roots(P[bad])
            owners.append(rows[bad][ri])
            roots.append(t)
    owners, roots = np.concatenate(owners), np.concatenate(roots)
    order = np.argsort(owners, kind="stable")  # each row's roots are one run
    return owners[order], roots[order]


def isolate_real_roots_flat(coeff_rows) -> tuple[np.ndarray, np.ndarray]:
    """All real roots of ascending-coefficient univariate polynomials, as
    (owners, roots): each root with its row index, grouped by row in row order
    and ascending within a row.

    Takes an (m, w) array or a list of finite rows; a non-finite row raises
    RootIsolationError. Rows grouped by trimmed degree (as _degrees trims) get
    their roots in closed form at degree 1; above it, _certified_roots
    certifies closed-form candidates at degrees 2 and 3 and companion
    eigenvalues at higher degrees: the row changes sign, beyond rounding,
    across [t-h, t+h] around a root t, h = 0.5e-12*max(1, M), and the roots
    number as many as the row's proved count of distinct real roots. Every
    row it rejects, among them each row with a repeated root, goes to
    _exact_roots, which returns each root once per unit of its multiplicity,
    within 0.5e-12*max(1, |root|) of the true one.
    """
    C = _as_rows(coeff_rows)
    return _isolate(C, _degrees(C))


def _reach_power(A: np.ndarray, D: int) -> np.ndarray:
    """(1 + max_i |A_ki|)^D per line, by repeated multiplication. A degree-D
    restriction is degenerate where its largest coefficient is below
    _DEGENERATE_TOL * max(1, |p|) times this."""
    return _powers(1.0 + np.abs(A).max(axis=1), D)[:, D]


def line_frames(lines: list[VarietySpec]) -> tuple[np.ndarray, np.ndarray]:
    """Points A and unit directions U of the lines, each stacked to (m, n)."""
    for g in lines:
        if not isinstance(g.sampler, LineSampler):
            raise UnsupportedVarietyError("exact cell enumeration needs a line sampler")
    A = np.stack([g.sampler.point for g in lines])
    U = np.stack([g.sampler.direction for g in lines])
    return A, U


class LineRestriction(NamedTuple):
    """One polynomial p restricted to m lines t -> A[i] + t*U[i].

    degenerate: the lines inside Z(p), whose restrictions vanish;
    owners, roots: every real root, once per unit of its multiplicity, with
        the index of its line, grouped by line; p changes sign at a cluster
        of an odd number of them;
    start: each line's bit at t -> -inf, set where p is negative there: the
        sign of the trimmed leading coefficient times (-1)^degree.
    """

    degenerate: np.ndarray
    owners: np.ndarray
    roots: np.ndarray
    start: np.ndarray


def line_restriction_roots(
    A: np.ndarray, U: np.ndarray, p: Polynomial, tensors: dict | None = None
) -> LineRestriction:
    """Restrict p to the lines of the stacked frame (A, U), isolate the roots
    and read the start bits. tensors is a CountFrame's cache for this frame,
    which gains p's basis on first use: the restriction is then one product
    with the cached tensor, whose last bits follow the BLAS kernel, and equals
    restrict_to_line_batch's uncached one."""
    D = p.basis.D
    if tensors is None:
        C, reach = restrict_to_line_batch(p, A, U), _reach_power(A, D)
    else:
        if p.basis not in tensors:
            tensors[p.basis] = line_restriction_tensor(p.basis, A, U), _reach_power(A, D)
        T, reach = tensors[p.basis]
        C = (p.coeffs @ T).reshape(-1, D + 1)
    mag = np.abs(C)
    top = mag.max(axis=1)
    degenerate = top < _DEGENERATE_TOL * (max(1.0, p.coeff_norm()) * reach)
    C[degenerate] = 0.0
    deg = np.where(degenerate, 0, _trimmed_degrees(mag, top))
    owners, roots = _isolate(C, deg)
    start = (C[np.arange(len(C)), deg] < 0) != (deg % 2 == 1)
    return LineRestriction(degenerate, owners, roots, start)


_MERGE_TOL = 1e-9


def _owner_value_order(owners, vals):
    """np.lexsort((vals, owners)) as two stable argsorts: of the values, then
    of the owners in that order, cast to np.min_scalar_type so that numpy
    radix-sorts owner ids up to 16 bits."""
    order = np.argsort(vals, kind="stable")
    key = owners[order].astype(np.min_scalar_type(owners.max(initial=0)))
    return order[np.argsort(key, kind="stable")]


def _line_cells(restrictions):
    """(line id, table index) of every sign interval realized along the lines,
    by root parity; lines inside some Z(P_j) are boundary everywhere and
    realize none.

    A line's cell before its first root is its start bits. The roots of all
    blocks are merged per line, roots within _MERGE_TOL of the previous one
    joining its cluster, and crossing a cluster flips the bit of every block
    with an odd number of roots in it. One XOR scan over all lines gives the
    cell after each cluster, offset by the scan's value where the line begins.
    """
    m = len(restrictions[0].degenerate)
    skip = np.zeros(m, dtype=bool)
    start = np.zeros(m, dtype=np.int64)
    for j, r in enumerate(restrictions):
        skip |= r.degenerate
        start |= r.start.astype(np.int64) << j
    owner_raw = np.concatenate([r.owners for r in restrictions])
    val_raw = np.concatenate([r.roots for r in restrictions])
    bit_raw = np.repeat(1 << np.arange(len(restrictions)), [len(r.roots) for r in restrictions])
    order = _owner_value_order(owner_raw, val_raw)
    o, v, bit = owner_raw[order], val_raw[order], bit_raw[order]
    acc = np.bitwise_xor.accumulate(bit)
    first = np.ones(len(o), dtype=bool)
    first[1:] = o[1:] != o[:-1]
    offset = start.copy()
    offset[o[first]] ^= acc[first] ^ bit[first]
    last = np.ones(len(o), dtype=bool)  # the last root of its cluster
    last[:-1] = first[1:] | (np.diff(v) > _MERGE_TOL * np.maximum(1.0, np.abs(v[1:])))
    owners = np.concatenate((o[last], np.arange(m)))
    idx = np.concatenate((acc[last] ^ offset[o[last]], start))
    ok = ~skip[owners]
    return owners[ok], idx[ok]


def cell_table_from_roots(restrictions: list[LineRestriction]) -> np.ndarray:
    """Count of lines entering each cell, straight to the 2^s table."""
    return _entry_table(*_line_cells(restrictions), len(restrictions))


def line_cell_sets(lines: list[VarietySpec], pvec) -> list[set]:
    """Exact sets of sign vectors each line enters (batched over lines); an
    empty set means the line lies inside some Z(P_j), boundary everywhere.
    check_line_tensors applies first."""
    A, U = line_frames(lines)
    check_line_tensors(lines, [p.basis.D for p in pvec])
    out: list[set] = [set() for _ in lines]
    for i, w in zip(*_line_cells([line_restriction_roots(A, U, p) for p in pvec])):
        out[i].add(index_w(int(w), len(pvec)))
    return out
