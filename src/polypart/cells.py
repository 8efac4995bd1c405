"""Sign-condition cells of a polynomial tuple and per-variety cell entry.

A sign vector w assigns bit w_j = 0 where P_j > 0 and w_j = 1 where P_j < 0;
points with any |P_j| at or below tolerance sit on the boundary and belong to
no cell. Cell entry is decided by sampling for general varieties and exactly
for lines from the real roots of the univariate restrictions: companion-matrix
eigenvalues certified by Sturm counts, with Sturm-count bisection for the rows
that certification rejects, and in closed form for linear restrictions. A
line's cells follow from root parity rather than from evaluating the blocks
at the gaps: each restriction gives the line's bit at t -> -inf from its
trimmed leading coefficient, and crossing a root of P_j flips bit j.
Certified roots are simple; a bisected row keeps only the roots it changes
sign at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polyalg import Polynomial, eval_poly_many, restrict_to_line_batch
from .varieties import LineSampler, UnsupportedVarietyError, VarietySpec, sample_in_ball

DEFAULT_SIGN_TOL_SCALE = 1e-9
MAX_S = 20  # most polynomials a cell table (of size 2^s) supports
_DEGENERATE_TOL = 1e-12
_TRIM_TOL = 1e-14  # a coefficient at or below this times its row's largest is dropped
_ISOLATION_MAX_SPLITS = 200
_REFINE_MAX_ITERS = 260


class RootIsolationError(RuntimeError):
    """Raised when univariate root isolation cannot certify a result."""


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

    R: float
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


class CountFrame:
    """A family's count table minus the polynomials: with exact_lines its
    lines as one stacked frame, whose restrictions share the frame's own
    binomial-factor cache, and a fixed sample in B_R of every other variety
    i, on seed (sampling.seed, i), of sampling.count points or the density
    default at product degree D. column(p) is one polynomial's part of the
    table, and table(cols) the 2^s table."""

    def __init__(self, Gamma, sampling, D, exact_lines=False):
        exact = [exact_lines and isinstance(g.sampler, LineSampler) for g in Gamma]
        lines = [g for g, e in zip(Gamma, exact) if e]
        self.lines = line_frames(lines) if lines else None
        self.facs = {}
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
        restriction = line_restriction_roots(*self.lines, p, self.facs) if self.lines else None
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
    over the whole line instead of sampling; other kinds always sample.
    """
    s = len(pvec)
    if s > MAX_S:
        raise ValueError(f"cell tables support at most {MAX_S} polynomials, got {s}")
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
# Chains are stored descending (np.polyval order), normalized to max |coef| 1.


def _trim_desc(c):
    scale = np.abs(c).max()
    if scale == 0.0:
        return np.zeros(1)
    keep = np.abs(c) > _TRIM_TOL * scale
    first = int(np.argmax(keep))
    return c[first:]


def _rem_desc(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Remainder of f modulo g, descending coefficients, lead(g) != 0."""
    r = f.copy()
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        q = r[0] / g[0]
        r[: dg + 1] -= q * g
        r = r[1:]  # the leading term cancels by construction
    return r


def _sturm_chain(c_desc: np.ndarray) -> list[np.ndarray]:
    p = _trim_desc(c_desc)
    p = p / np.abs(p).max()
    chain = [p]
    if len(p) > 1:
        dp = p[:-1] * np.arange(len(p) - 1, 0, -1)
        chain.append(dp / np.abs(dp).max())
    while len(chain[-1]) > 1:
        r = _trim_desc(-_rem_desc(chain[-2], chain[-1]))
        scale = np.abs(r).max()
        if scale <= _DEGENERATE_TOL:
            break  # nontrivial gcd; the chain still counts distinct roots
        chain.append(r / scale)
    return chain


def _pad_chains(chains: list[list[np.ndarray]]):
    m = len(chains)
    L = max(len(ch) for ch in chains)
    width = max(len(el) for ch in chains for el in ch)
    pad = np.zeros((m, L, width))
    for i, ch in enumerate(chains):
        for l, el in enumerate(ch):
            pad[i, l, width - len(el) :] = el
    return pad


def _variations(pad, rows, ts):
    """Sign variation count of each chain at each t; also p0(t)==0 flags."""
    c = pad[rows]
    vals = c[:, :, 0]
    for p in range(1, pad.shape[2]):
        vals = vals * ts[:, None] + c[:, :, p]
    count = np.zeros(len(rows), dtype=np.int64)
    last = np.zeros(len(rows))
    for col in range(pad.shape[1]):
        s = np.sign(vals[:, col])
        count += (s != 0) & (last != 0) & (s != last)
        last = np.where(s != 0, s, last)
    return count, vals[:, 0] == 0.0


def _variations_safe(pad, rows, ts, widths):
    """Variations with evaluation points nudged off exact roots of p0."""
    v, zero = _variations(pad, rows, ts)
    tries = 0
    while np.any(zero):
        tries += 1
        if tries > 8:
            raise RootIsolationError("could not evaluate Sturm chain off a root")
        ts = np.where(zero, ts + widths * (1e-3 * tries), ts)
        v, zero = _variations(pad, rows, ts)
    return v, ts


def _isolate_by_bisection(coeff_rows) -> list[np.ndarray]:
    """Sturm-count bisection, batched level-synchronously across rows; raises
    RootIsolationError instead of returning uncertain output."""
    m = len(coeff_rows)
    roots: list[list[float]] = [[] for _ in range(m)]
    chains = []
    bounds = []
    live = []
    for i, asc in enumerate(coeff_rows):
        desc = _trim_desc(np.asarray(asc, dtype=np.float64)[::-1])
        if len(desc) <= 1:
            continue  # constants have no roots; all-zero rows are the caller's job
        chains.append(_sturm_chain(desc))
        bounds.append(1.0 + np.abs(desc[1:]).max() / abs(desc[0]))
        live.append(i)
    if not chains:
        return [np.array(r) for r in roots]
    pad = _pad_chains(chains)
    M = np.array(bounds)
    rows = np.arange(len(live))
    lo, hi = -M, M
    vlo, _ = _variations(pad, rows, lo)
    vhi, _ = _variations(pad, rows, hi)

    # phase 1: split until every interval holds exactly one distinct root
    work = (rows, lo, hi, vlo, vhi)
    iso_rows, iso_lo, iso_hi = [], [], []
    for _ in range(_ISOLATION_MAX_SPLITS):
        r, a, b, va, vb = work
        nroots = va - vb
        one = nroots == 1
        iso_rows.append(r[one])
        iso_lo.append(a[one])
        iso_hi.append(b[one])
        multi = nroots > 1
        if not np.any(multi):
            break
        r, a, b, va, vb = r[multi], a[multi], b[multi], va[multi], vb[multi]
        mid = 0.5 * (a + b)
        vmid, mid = _variations_safe(pad, r, mid, b - a)
        work = (
            np.concatenate([r, r]),
            np.concatenate([a, mid]),
            np.concatenate([mid, b]),
            np.concatenate([va, vmid]),
            np.concatenate([vmid, vb]),
        )
    else:
        raise RootIsolationError("root isolation failed to separate roots")

    r = np.concatenate(iso_rows)
    a = np.concatenate(iso_lo)
    b = np.concatenate(iso_hi)
    va, _ = _variations(pad, r, a)

    # phase 2: shrink each isolated interval by count-preserving bisection
    tol = 1e-12 * np.maximum(1.0, M[r])
    for _ in range(_REFINE_MAX_ITERS):
        active = (b - a) > tol
        if not np.any(active):
            break
        mid = 0.5 * (a + b)
        vmid, mid = _variations_safe(pad, r[active], mid[active], (b - a)[active])
        go_left = (va[active] - vmid) >= 1
        b[active] = np.where(go_left, mid, b[active])
        new_a = np.where(go_left, a[active], mid)
        va[active] = np.where(go_left, va[active], vmid)
        a[active] = new_a
    else:
        raise RootIsolationError("root refinement did not converge")

    centers = 0.5 * (a + b)
    for row, t in zip(r, centers):
        roots[live[row]].append(float(t))
    return [np.array(sorted(rs)) for rs in roots]


def _as_rows(coeff_rows) -> np.ndarray:
    """(m, w) ascending coefficients from an array or a zero-padded list of rows."""
    if isinstance(coeff_rows, np.ndarray) and coeff_rows.ndim == 2:
        return coeff_rows.astype(np.float64, copy=False)
    rows = [np.atleast_1d(np.asarray(r, dtype=np.float64)) for r in coeff_rows]
    C = np.zeros((len(rows), max([1] + [len(r) for r in rows])))
    for i, r in enumerate(rows):
        C[i, : len(r)] = r
    return C


def _sturm_chains_of_degree(P: np.ndarray):
    """_sturm_chain of rows of one degree d >= 1, padded as by _pad_chains to
    (m, d+1, d+1), and a mask of rows whose chain dropped a degree or met a gcd."""
    m, w = P.shape
    f = P / np.abs(P).max(axis=1, keepdims=True)
    g = f[:, :-1] * np.arange(w - 1, 0, -1)
    g /= np.abs(g).max(axis=1, keepdims=True)
    pad = np.zeros((m, w, w))
    pad[:, 0], pad[:, 1, 1:] = f, g
    bad = np.zeros(m, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # bad rows carry junk
        for level in range(2, w):
            r = f.copy()
            for _ in range(2):  # deg f = deg g + 1
                r[:, : g.shape[1]] -= (r[:, 0] / g[:, 0])[:, None] * g
                r = r[:, 1:]
            scale = np.abs(r).max(axis=1)
            bad |= (scale <= _DEGENERATE_TOL) | (np.abs(r[:, 0]) <= _TRIM_TOL * scale)
            f, g = g, -r / scale[:, None]
            pad[:, level, level:] = g
    return pad, bad


def _certified_roots(P: np.ndarray):
    """Real companion eigenvalues r of the rows of one degree d >= 1, certified
    by Sturm counts: V(-M) - V(M) must equal their number (M the Cauchy bound),
    and the brackets [r-h, r+h], h = 0.5e-12*max(1, M), must be disjoint, hold
    one root each and not end on an exact zero.

    Returns (bad, rows, roots): bad flags the rows that fail, and rows, roots
    list every root of the other rows, by row and ascending within a row."""
    m, d = P.shape[0], P.shape[1] - 1
    comp = np.zeros((m, d, d))
    comp[:, 0] = -P[:, 1:] / P[:, :1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    cand = np.linalg.eigvals(comp) if d > 1 else comp[:, :, 0]
    real = cand.imag == 0.0
    cand = np.sort(np.where(real, cand.real, np.inf), axis=1)
    nreal = real.sum(axis=1)
    ri, ki = np.nonzero(np.arange(d) < nreal[:, None])
    t = cand[ri, ki]
    M = 1.0 + np.abs(P[:, 1:]).max(axis=1) / np.abs(P[:, 0])
    h = 0.5e-12 * np.maximum(1.0, M[ri])
    pad, bad = _sturm_chains_of_degree(P)
    at = np.concatenate([np.arange(m), np.arange(m), ri, ri])
    v, zero = _variations(pad, at, np.concatenate([-M, M, t - h, t + h]))
    v_lo, v_hi, v_a, v_b = np.split(v, np.cumsum([m, m, len(ri)]))
    bad |= v_lo - v_hi != nreal
    bad[at[zero]] = True
    bad[ri[v_a - v_b != 1]] = True
    bad[ri[1:][(ri[1:] == ri[:-1]) & (np.diff(t) <= 2.0 * h[1:])]] = True
    ok = ~bad[ri]
    return bad, ri[ok], t[ok]


def _degrees(C: np.ndarray) -> np.ndarray:
    """Degree of each row of C trimmed as _trim_desc trims: its last
    coefficient above _TRIM_TOL times the row's largest; 0 for an all-zero row."""
    keep = np.abs(C) > _TRIM_TOL * np.abs(C).max(axis=1, keepdims=True)
    return np.where(keep.any(axis=1), C.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1), 0)


def _isolate(C: np.ndarray, deg: np.ndarray):
    """isolate_real_roots_flat of the (m, w) array C with trimmed degrees deg,
    plus the mask of rows that certification rejected and bisection isolated."""
    bisected = np.zeros(len(C), dtype=bool)
    owners, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for d in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == d)
        if d == 1:  # _certified_roots' own bits; its checks pass on every trimmed linear row
            ri, t = np.arange(len(rows)), -C[rows, 0] / C[rows, 1]
        else:
            bad, ri, t = _certified_roots(C[rows, d::-1])
            bisected[rows[bad]] = True
        owners.append(rows[ri])
        roots.append(t)
    for i, r in zip(np.flatnonzero(bisected), _isolate_by_bisection(C[bisected])):
        owners.append(np.full(len(r), i))
        roots.append(r)
    owners, roots = np.concatenate(owners), np.concatenate(roots)
    order = np.argsort(owners, kind="stable")  # each row's roots are one run
    return owners[order], roots[order], bisected


def isolate_real_roots_flat(coeff_rows) -> tuple[np.ndarray, np.ndarray]:
    """All distinct real roots of ascending-coefficient univariate polynomials,
    as (owners, roots): each root with its row index, grouped by row in row
    order and ascending within a row.

    Takes an (m, w) array or a list of rows. Rows grouped by trimmed degree
    (as _trim_desc trims) get their roots in closed form at degree 1 and as
    certified companion eigenvalues above it; the rows that certification
    rejects get Sturm-count bisection, which raises RootIsolationError rather
    than return uncertain roots. Each root is within 0.5e-12*max(1, M) of a
    true root.
    """
    C = _as_rows(coeff_rows)
    owners, roots, _ = _isolate(C, _degrees(C))
    return owners, roots


def _restriction_scale(p: Polynomial, A: np.ndarray) -> np.ndarray:
    reach = 1.0 + np.abs(A).max(axis=1)
    return max(1.0, p.coeff_norm()) * np.maximum(1.0, reach) ** p.basis.D


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
    owners, roots: every real root at which p changes sign, with the index of
        its line, grouped by line;
    start: each line's bit at t -> -inf, set where p is negative there: the
        sign of the trimmed leading coefficient times (-1)^degree.
    """

    degenerate: np.ndarray
    owners: np.ndarray
    roots: np.ndarray
    start: np.ndarray


def _exact_sign(c, t) -> int:
    """Sign of the ascending coefficients c at t, in exact rational arithmetic."""
    from fractions import Fraction  # only this rare path needs it; it adds ~2 ms to every import

    v, t = Fraction(0), Fraction(float(t))
    for ck in c[::-1]:
        v = v * t + Fraction(float(ck))
    return (v > 0) - (v < 0)


def _sign_changes(C, owners, roots):
    """Which of the given roots of the rows of C their row changes sign at.

    Each row is read by Horner between its consecutive roots and beyond its
    extreme roots by max(1, |root|). A reading within Horner's rounding bound
    of zero is redone in exact rational arithmetic; an exact zero raises
    RootIsolationError.
    """
    rows = C[owners]
    same = owners[1:] == owners[:-1]
    mid = 0.5 * (roots[1:] + roots[:-1])
    reach = np.maximum(1.0, np.abs(roots))
    before = np.where(np.r_[False, same], np.r_[0.0, mid], roots - reach)
    after = np.where(np.r_[same, False], np.r_[mid, 0.0], roots + reach)
    signs = []
    for t in (before, after):
        v, bound = rows[:, -1], np.abs(rows[:, -1])
        for k in range(rows.shape[1] - 2, -1, -1):
            v = v * t + rows[:, k]
            bound = bound * np.abs(t) + np.abs(rows[:, k])
        sign = np.sign(v)
        for k in np.flatnonzero(np.abs(v) <= 2 * rows.shape[1] * np.finfo(float).eps * bound):
            sign[k] = _exact_sign(rows[k], t[k])
        if not sign.all():
            k = np.argmin(np.abs(sign))
            raise RootIsolationError(f"ambiguous sign reading on line {owners[k]} at t = {t[k]}")
        signs.append(sign < 0)
    return signs[0] != signs[1]


def line_restriction_roots(
    A: np.ndarray, U: np.ndarray, p: Polynomial, facs: dict | None = None
) -> LineRestriction:
    """Restrict p to the lines of the stacked frame (A, U), isolate the roots
    and read the start bits; facs is restrict_to_line_batch's factor cache for
    this frame. Certified roots are simple; a root of a bisected row is kept
    only where the row changes sign, so no root of even multiplicity is kept."""
    C = restrict_to_line_batch(p, A, U, facs)
    degenerate = np.abs(C).max(axis=1) < _DEGENERATE_TOL * _restriction_scale(p, A)
    C[degenerate] = 0.0
    deg = _degrees(C)
    owners, roots, bisected = _isolate(C, deg)
    check = bisected[owners]
    if check.any():
        keep = ~check
        keep[check] = _sign_changes(C, owners[check], roots[check])
        owners, roots = owners[keep], roots[keep]
    start = (C[np.arange(len(C)), deg] < 0) != (deg % 2 == 1)
    return LineRestriction(degenerate, owners, roots, start)


_MERGE_TOL = 1e-9


def _owner_value_order(owners, vals):
    """np.lexsort((vals, owners)) by one integer argsort: the stable rank of
    each value keeps ties in input order, so the keys owners * N + rank are
    distinct and any sort kind returns lexsort's permutation."""
    N = len(vals)
    rank = np.empty(N, dtype=np.int64)
    rank[np.argsort(vals, kind="stable")] = np.arange(N)
    return np.argsort(owners * N + rank)


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
    empty set means the line lies inside some Z(P_j), boundary everywhere."""
    A, U = line_frames(lines)
    out: list[set] = [set() for _ in lines]
    for i, w in zip(*_line_cells([line_restriction_roots(A, U, p) for p in pvec])):
        out[i].add(index_w(int(w), len(pvec)))
    return out
