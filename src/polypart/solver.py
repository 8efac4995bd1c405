"""Search for partitioning polynomial tuples with balanced cell counts.

The variety solver anneals over the product of spheres, proposing tangent
steps one block at a time and accepting whenever the objective does not
increase, so accepted traces are non-increasing by construction. The discrete
objective is the spectral power of the cell-count table (zero exactly at
equidistribution); the smoothed objective swaps in mollified counts over the
shrinking delta grid mollifier.DELTA_GRID. Each level is a frame with
column(p) and table(cols): a cells.CountFrame for the discrete counts, a
mollifier.LevelFrame for the mollified ones. The annealing loop keeps one column per block, recomputes
only the moved block's column and scores spectral_power(frame.table(cols)),
so the solver only anneals. Every solve ends the same way: each restart's
tuple is recounted from scratch by cells.counts, a discrete restart's
annealed table must equal its recount, and the restarts are ranked by the
spectral power of their recounts. The point solver instead bisects
sequentially, one polynomial per step, minimizing the worst signed imbalance
over the current parts (a numerical stand-in for a ham-sandwich cut on the
lifted points). Both solvers build their report through
PartitionReport.from_counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cells as cells_mod
from . import mollifier as moll_mod
# sign_vector_many and eval_poly_many are unused here, but perfbench's tracer
# requires these bindings
from .cells import CellCounts, SamplingConfig, point_counts, sign_vector_many
from .polyalg import (
    Polynomial, check_reach, degree_schedule, eval_poly_many, monomial_basis, monomial_matrix
)
from .spectrum import Spectrum, spectral_power, wht
from .sphereprod import XsPoint, block_poly, block_size, random_point, to_polys
from .varieties import VarietySpec

# the annealing step length decays geometrically from STEP_INIT to STEP_FINAL
# over each level's iterations
STEP_INIT = 0.8
STEP_FINAL = 0.02


class SelfCheckError(RuntimeError):
    """A restart's annealed count table disagrees with cells.counts."""


@dataclass
class SolveConfig:
    """One solve's settings. ValueError, with a message that starts with the
    field it rejects, unless s, n and restarts are >= 1, iters and seed
    >= 0, objective is "discrete" or "smooth", mc_count >= 1 and the degree
    schedule of (n, s) fits the basis budget (polyalg.degree_schedule)."""

    s: int
    n: int
    restarts: int = 3
    iters: int = 600
    seed: int = 0
    objective: str = "discrete"  # or "smooth"
    mc_count: int = moll_mod.DEFAULT_MC_COUNT
    sampling: SamplingConfig | None = None

    def __post_init__(self):
        bounds = (("s", 1), ("n", 1), ("restarts", 1), ("iters", 0), ("seed", 0), ("mc_count", 1))
        for name, low in bounds:
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.objective not in ("discrete", "smooth"):
            raise ValueError(f"objective must be 'discrete' or 'smooth', got {self.objective!r}")
        degree_schedule(self.n, self.s)


@dataclass
class PartitionReport:
    pvec: list[Polynomial]
    counts: CellCounts
    spectrum: Spectrum
    max_count: int
    bound_ratio: float
    objective: float
    trace: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_counts(cls, pvec, counts: CellCounts, scale: float, trace, meta) -> "PartitionReport":
        """The report of a tuple and its count table. scale is |Gamma| D^(k-n),
        the right-hand side of Guth's bound up to its constant; 0 stands for
        an empty family, whose bound ratio is 0.0."""
        max_count = int(counts.table.max())
        return cls(
            pvec=pvec,
            counts=counts,
            spectrum=wht(counts),
            max_count=max_count,
            bound_ratio=max_count / scale if scale else 0.0,
            objective=spectral_power(counts.table),
            trace=trace,
            meta=meta,
        )


def family_dims(Gamma) -> tuple[int, int]:
    """(n, k) of a family, which every variety must share: ValueError names
    the first variety that differs from varieties[0]."""
    if not Gamma:
        raise ValueError("need at least one variety")
    n, k = Gamma[0].n, Gamma[0].k
    for i, g in enumerate(Gamma):
        if g.n != n or g.k != k:
            what, mine, first = ("n", g.n, n) if g.n != n else ("k", g.k, k)
            raise ValueError(
                f"varieties[{i}]: dimension {what} = {mine} differs from {what} = {first}"
                f" of varieties[0]; a family must share {what}"
            )
    return n, k


def _step_block(x: XsPoint, j: int, direction: np.ndarray, h: float) -> XsPoint:
    """Tangent step on block j only; other blocks stay bit-identical."""
    b = x.blocks[j - 1]
    tangent = direction - (direction @ b) * b
    stepped = b + h * tangent
    norm = np.linalg.norm(stepped)
    if norm == 0.0:
        return x
    blocks = list(x.blocks)
    blocks[j - 1] = stepped / norm
    return XsPoint(tuple(blocks))


def _certified_zero(mcfg: moll_mod.MollConfig, bases) -> bool:
    """True when the level scores every unit tuple exactly 0.

    Block j holds unit coefficients on the first block_size(j) monomials of
    bases[j-1], so by Cauchy-Schwarz |P_j| <= sqrt(sum R^(2|e|)) over them on
    B_R, where every cloud point lies. When one block's bound is below eps
    (with a margin for rounding), eta zeroes every point's minimum |P_j| and
    every mollified entry is 0.
    """
    R = mcfg.radius
    bound = min(
        math.sqrt(float(np.sum(R ** (2 * b.exponents[: block_size(j)].sum(axis=1)))))
        for j, b in enumerate(bases, start=1)
    )
    return bound * (1.0 + 1e-9) < mcfg.eps


def _levels(Gamma, cfg: SolveConfig, D, sampling, bases):
    """(frame, iterations, skipped) per annealing level: one cells.CountFrame,
    or one mollifier.LevelFrame per delta on the largest schedule basis, each
    built only when the previous is done. A smooth level certified to score 0
    is skipped: its frame has no clouds and scores every tuple 0.0, as the
    sampled one would, so the annealing draws and accepts exactly as before."""
    if cfg.objective == "discrete":
        yield cells_mod.CountFrame(Gamma, sampling, D, exact_lines=True), cfg.iters, False
        return
    per_level = max(cfg.iters // len(moll_mod.DELTA_GRID), 20)
    basis = max(bases, key=len)
    for level, delta in enumerate(moll_mod.DELTA_GRID):
        mcfg = moll_mod.schedule(delta, bases, cfg.mc_count, (cfg.seed, 3, level))
        skip = _certified_zero(mcfg, bases)
        yield moll_mod.LevelFrame(Gamma, mcfg, basis, [] if skip else None), per_level, skip


def _anneal(frame, cols, x, obj, n, iters, rng, trace, it_offset):
    """Anneal x, whose objective is obj, through frame. cols holds the frame
    column of each of x's s polynomials and follows x: a proposal recomputes
    only the moved block's column, and a rejected one puts the old back."""
    s = x.s
    for k in range(iters):
        frac = k / max(iters - 1, 1)
        h = STEP_INIT * (STEP_FINAL / STEP_INIT) ** frac
        j = int(rng.integers(1, s + 1))
        direction = rng.normal(size=block_size(j))
        x_cand = _step_block(x, j, direction, h)
        old = cols[j - 1]
        cols[j - 1] = frame.column(block_poly(x_cand, j, n))
        cand = spectral_power(frame.table(cols))
        if cand <= obj:
            x, obj = x_cand, cand
            trace.append((it_offset + k, float(obj)))
        else:
            cols[j - 1] = old
        if obj == 0.0:
            break
    return x


def partition_varieties(Gamma: list[VarietySpec], cfg: SolveConfig) -> PartitionReport:
    """Best-of-restarts annealed search; the report always uses discrete counts."""
    n, k = family_dims(Gamma)
    if n != cfg.n:
        raise ValueError(f"config n = {cfg.n} but varieties live in R^{n}")
    sched = degree_schedule(n, cfg.s)
    cells_mod.check_line_tensors(Gamma, sched)
    D = sum(sched)
    sampling = cfg.sampling or SamplingConfig(seed=cfg.seed)
    bases = [monomial_basis(n, Dj) for Dj in sched]

    # each level is built once and every restart anneals through it, since no
    # level's seeds depend on the restart; a restart keeps its own point,
    # random stream, trace and (discrete) annealed table
    restarts = range(cfg.restarts)
    xs = [random_point(cfg.s, (cfg.seed, 1, r)) for r in restarts]
    rngs = [np.random.default_rng((cfg.seed, 2, r)) for r in restarts]
    traces: list = [[] for _ in restarts]
    tables = [None] * cfg.restarts
    offset = 0
    skipped = []
    for frame, iters, skip in _levels(Gamma, cfg, D, sampling, bases):
        if skip:
            skipped.append(frame.cfg.delta)
        for r in restarts:
            cols = [frame.column(p) for p in to_polys(xs[r], n)]
            obj = spectral_power(frame.table(cols))
            if not traces[r]:  # the restart's starting objective
                traces[r].append((-1, float(obj)))
            xs[r] = _anneal(frame, cols, xs[r], obj, n, iters, rngs[r], traces[r], offset)
            if cfg.objective == "discrete":  # checked against its recount below
                tables[r] = frame.table(cols)
        offset += iters
        del frame, cols  # one level's caches alive at a time
    # every restart is recounted on a frame of its own and ranked by its
    # recount (the first on ties); the best one's table is reported as it is
    pvecs = [to_polys(x, n) for x in xs]
    finals = [cells_mod.counts(Gamma, p, sampling, exact_lines=True) for p in pvecs]
    for table, final in zip(tables, finals):
        if table is not None and not np.array_equal(table, final.table):
            i = int(np.flatnonzero(table != final.table)[0])
            raise SelfCheckError(
                f"annealed count {table[i]} differs from cells.counts {final.table[i]} "
                f"in cell {cells_mod.index_w(i, cfg.s)}"
            )
    best = min(restarts, key=lambda r: spectral_power(finals[r].table))
    meta = {
        "s": cfg.s,
        "n": n,
        "k": k,
        "D": D,
        "degree_schedule": sched,
        "seed": cfg.seed,
        "objective_kind": cfg.objective,
        "restarts": cfg.restarts,
        "num_varieties": len(Gamma),
        "sampling": {"R": sampling.R, "count": sampling.count, "seed": sampling.seed},
        "exact_lines": True,
    }
    if cfg.objective == "smooth":
        meta["levels_skipped"] = skipped  # the deltas certified to score 0
    scale = len(Gamma) * float(D) ** (k - n)
    return PartitionReport.from_counts(pvecs[best], finals[best], scale, traces[best], meta)


# ---------------------------------------------------------------------------
# Point partitioning by sequential bisection.


# a point with |value| <= TAU lies on the polynomial's boundary: blocks are
# unit vectors, so this is the tolerance sign_vector_many reads the reported
# table with, and the points bisection drops are its boundary points
TAU = cells_mod.DEFAULT_SIGN_TOL_SCALE
_CHUNK = 16  # polish proposals scored by one matrix product
SIGMA_LEVELS = 9  # tanh widths _smooth_descent sharpens through
NEWTON_ITERS = 12  # most damped Newton steps per width


def _signs(vals):
    """+1 or -1 for a value off the boundary (|v| > TAU), by its sign; 0 on it.

    int8, and equal to np.copysign(np.abs(vals) > TAU, vals) for every value
    (±0 and NaN read 0), by two comparisons instead of copysign's slower loop.
    """
    return (vals > TAU).view(np.int8) - (vals < -TAU).view(np.int8)


def _imbalances(vals, bucket, n_parts):
    """|#positive - #negative| per part over the points off the boundary.

    bucket[i] is point i's part, or n_parts for a dead point (one that lay on
    an earlier boundary); that extra bucket is counted and dropped. The
    weights are 0 or +-1, so the sums are exact in any order.
    """
    signed = np.bincount(bucket, weights=_signs(vals), minlength=n_parts + 1)[:n_parts]
    return np.abs(signed).astype(np.int64)


def _part_segments(bucket, n_parts):
    """The live points sorted by part, as (order, starts, filled): order
    indexes them, and the nonempty part filled[i] is the segment starting at
    starts[i] of that order."""
    live = np.flatnonzero(bucket < n_parts)
    order = live[np.argsort(bucket[live], kind="stable")]
    sizes = np.bincount(bucket[live], minlength=n_parts)
    filled = np.flatnonzero(sizes)
    return order, (np.cumsum(sizes) - sizes)[filled], filled


def _imbalance_rows(vals, starts, filled, n_parts):
    """_imbalances of every row of vals, whose columns are the live points in
    _part_segments order; a part with no points reads 0. The sums are exact."""
    out = np.zeros((len(vals), n_parts), dtype=np.int64)
    if len(filled):
        out[:, filled] = np.abs(np.add.reduceat(_signs(vals), starts, axis=1, dtype=np.int64))
    return out


def _bisect_score(imb):
    return int(imb.max()), int(imb.dot(imb))


def _smoothed_residual(M, bucket, c, n_parts, sigma):
    th = np.tanh((M @ c) / sigma)
    # bincount adds each bucket's weights in index order, so the live sums
    # are those of the live points alone
    F = np.bincount(bucket, weights=th, minlength=n_parts + 1)[:n_parts]
    return th, F


def _jacobian(M, W, keys, n_parts):
    """Row p sums W_i * M[i] over the points i of part p in index order, as
    np.add.at would: one flat bincount on keys = (bucket * dim + column)
    raveled, whose dead bucket n_parts is dropped."""
    dim = M.shape[1]
    J = np.bincount(keys, weights=(M * W[:, None]).ravel(), minlength=(n_parts + 1) * dim)
    return J[: n_parts * dim].reshape(n_parts, dim)


def _smooth_descent(M, bucket, c, n_parts):
    """Drive the smoothed signed imbalances to zero by damped Newton steps,
    sharpening the tanh surrogate toward the true sign counts."""
    alive = bucket < n_parts
    keys = (bucket[:, None] * M.shape[1] + np.arange(M.shape[1])).ravel()
    c = c / np.linalg.norm(c)
    v0 = M @ c
    scale = float(np.median(np.abs(v0[alive]))) if np.any(alive) else 1.0
    sigma = max(scale, 1e-9)
    for _level in range(SIGMA_LEVELS):
        # an accepted step carries its residual into the next iteration, so
        # the residual is computed fresh only where sigma changes
        th, F = _smoothed_residual(M, bucket, c, n_parts, sigma)
        for _ in range(NEWTON_ITERS):
            err = float(np.abs(F).max())
            if err < 0.25:
                break
            J = _jacobian(M, (1.0 - th**2) / sigma, keys, n_parts)
            try:
                step, *_ = np.linalg.lstsq(J, -F, rcond=None)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            # backtrack on the residual norm
            improved = False
            t = 1.0
            base = float(np.sum(F**2))
            for _try in range(10):
                cand = c + t * step
                cand /= np.linalg.norm(cand)
                thc, Fc = _smoothed_residual(M, bucket, cand, n_parts, sigma)
                if float(np.sum(Fc**2)) < base:
                    c, th, F = cand, thc, Fc
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        sigma *= 0.4
    return c


def _polish(M, bucket, c, n_parts, rng, proposals):
    """Hill climb directly on (max imbalance, sum of squares).

    The proposal noise is drawn in one call, which gives the same stream as
    one draw per proposal; the caller does not use rng afterwards.

    Proposals come _CHUNK at a time, each a step from the best point at the
    chunk's start. One product of the chunk's normalized rows with the live
    points sorted by part, and one reduceat over the parts, give every row's
    imbalances, and _bisect_score scores each row once. The walk moves to
    the chunk's first row that scores no worse; its later rows are dropped.
    """
    best = c
    best_score = _bisect_score(_imbalances(M @ c, bucket, n_parts))
    noise = rng.normal(size=(proposals, len(best)))
    steps = np.array(
        [0.3 * (0.03 / 0.3) ** (k / max(proposals - 1, 1)) for k in range(proposals)]
    )
    order, starts, filled = _part_segments(bucket, n_parts)
    live_t = M[order].T.copy()
    for k0 in range(0, proposals, _CHUNK):
        rows = best + steps[k0 : k0 + _CHUNK, None] * noise[k0 : k0 + _CHUNK]
        rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
        imbs = _imbalance_rows(rows @ live_t, starts, filled, n_parts)
        scores = [_bisect_score(imb) for imb in imbs]
        i = next((i for i, score in enumerate(scores) if score <= best_score), None)
        if i is not None:
            best, best_score = rows[i], scores[i]
    return best, best_score


def partition_points(X, s: int, cfg: SolveConfig) -> PartitionReport:
    """Sequential bisection: step j picks one unit-coefficient polynomial that
    minimizes the worst signed imbalance over all current parts, then refines
    the parts by its sign. Reports per-step imbalances and k = 0 counts."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("need a nonempty (N, n) point array")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")
    n = X.shape[1]
    if s != cfg.s:
        raise ValueError(f"s = {s} does not match the config's s = {cfg.s}")
    if n != cfg.n:
        raise ValueError(f"config n = {cfg.n} but points live in R^{n}")
    sched = degree_schedule(n, s)
    check_reach(X, sched[-1], "points")
    D = sum(sched)
    part = np.zeros(len(X), dtype=np.int64)
    alive = np.ones(len(X), dtype=bool)
    blocks = []
    imbalance_trace = []
    for j in range(1, s + 1):
        basis = monomial_basis(n, sched[j - 1])
        subdim = block_size(j)
        M = monomial_matrix(X, basis)[:, :subdim]
        n_parts = 2 ** (j - 1)
        bucket = np.where(alive, part, n_parts)
        best_c, best_score = None, None
        for start in range(cfg.restarts):
            rng = np.random.default_rng((cfg.seed, 4, j, start))
            c0 = rng.normal(size=subdim)
            c0 /= np.linalg.norm(c0)
            c1 = _smooth_descent(M, bucket, c0, n_parts)
            c2, score = _polish(M, bucket, c1, n_parts, rng, cfg.iters // 2)
            if best_score is None or score < best_score:
                best_c, best_score = c2, score
        blocks.append(best_c)
        vals = M @ best_c
        imb = _imbalances(vals, bucket, n_parts)
        sizes = np.bincount(bucket, minlength=n_parts + 1)
        for p in range(n_parts):
            imbalance_trace.append(
                {"step": j, "part": p, "size": int(sizes[p]), "imbalance": int(imb[p])}
            )
        boundary = np.abs(vals) <= TAU
        alive &= ~boundary
        part = part | ((vals < -TAU).astype(np.int64) << (j - 1))

    pvec = to_polys(XsPoint(tuple(blocks)), n)
    meta = {
        "s": s,
        "n": n,
        "k": 0,
        "D": D,
        "degree_schedule": sched,
        "seed": cfg.seed,
        "objective_kind": "bisection",
        "restarts": cfg.restarts,
        "num_points": len(X),
    }
    scale = len(X) * float(D) ** (0 - n)
    return PartitionReport.from_counts(pvec, point_counts(X, pvec), scale, imbalance_trace, meta)
