"""Search for partitioning polynomial tuples with balanced cell counts.

The variety solver anneals over the product of spheres, proposing tangent
steps one block at a time and accepting whenever the objective does not
increase, so accepted traces are non-increasing by construction. The discrete
objective is the spectral power of the cell-count table (zero exactly at
equidistribution); the smoothed objective swaps in mollified counts over a
shrinking delta grid. The point solver instead bisects sequentially, one
polynomial per step, minimizing the worst signed imbalance over the current
parts (a numerical stand-in for a ham-sandwich cut on the lifted points).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cells as cells_mod
from . import mollifier as moll_mod
from .cells import CellCounts, SamplingConfig, point_counts, sign_vector_many
from .polyalg import Polynomial, degree_schedule, eval_poly_many, monomial_basis, monomial_matrix
from .spectrum import Spectrum, spectral_power, wht
from .sphereprod import XsPoint, block_poly, block_size, random_point, to_polys
from .varieties import LineSampler, VarietySpec


class SelfCheckError(RuntimeError):
    """The incremental evaluator's count table disagrees with cells.counts."""


@dataclass
class SolveConfig:
    s: int
    n: int
    restarts: int = 3
    iters: int = 600
    seed: int = 0
    objective: str = "discrete"  # or "smooth"
    step_init: float = 0.8
    step_final: float = 0.02
    delta_grid: tuple = tuple(2.0**-e for e in range(1, 13))
    mc_count: int = 4096
    sampling: SamplingConfig | None = None
    exact_lines: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need restarts >= 1")
        if self.objective not in ("discrete", "smooth"):
            raise ValueError(f"unknown objective kind {self.objective!r}")
        if list(self.delta_grid) != sorted(self.delta_grid, reverse=True):
            raise ValueError("delta grid must decrease")


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


def objective_discrete(Gamma, x: XsPoint, sampling: SamplingConfig, exact_lines=True) -> float:
    """Sum of squared nonzero-frequency balance values of the discrete counts."""
    if not Gamma:
        return 0.0
    pvec = to_polys(x, _ambient(Gamma))
    table = cells_mod.counts(Gamma, pvec, sampling, exact_lines=exact_lines).table
    return spectral_power(table)


def objective_smooth(Gamma, x: XsPoint, cfg: moll_mod.MollConfig, clouds=None) -> float:
    """Spectral power of the mollified count table at one smoothing level."""
    if not Gamma:
        return 0.0
    n = _ambient(Gamma)
    table = moll_mod.mollified_table(Gamma, to_polys(x, n), cfg, clouds)
    return spectral_power(table)


def _ambient(Gamma) -> int:
    if not Gamma:
        raise ValueError("need at least one variety")
    n = Gamma[0].n
    if any(g.n != n for g in Gamma):
        raise ValueError("varieties must share the ambient dimension")
    return n


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


class _DiscreteEvaluator:
    """Incremental discrete objective: per-block caches of the line
    restrictions (coefficient rows, flattened roots) and per-variety sample
    values, so a one-block proposal recomputes one column."""

    def __init__(self, Gamma, n, s, sampling, exact_lines):
        self.Gamma = Gamma
        self.s = s
        self.n = n
        self.sampling = sampling
        self.line_ids = [
            i for i, g in enumerate(Gamma) if exact_lines and isinstance(g.sampler, LineSampler)
        ]
        self.lines = [Gamma[i] for i in self.line_ids]
        self.other_ids = [i for i in range(len(Gamma)) if i not in set(self.line_ids)]
        D = None
        self.other_pts = []
        for i in self.other_ids:
            g = Gamma[i]
            if D is None:
                D = sum(degree_schedule(n, s))
            count = sampling.count or cells_mod._auto_count(g, sampling.R, D)
            self.other_pts.append(
                cells_mod.sample_in_ball(g, sampling.R, count, (sampling.seed, i))
            )
        self.frame = cells_mod.line_frames(self.lines) if self.lines else None
        self.pvec = None
        self.restrictions = [None] * s
        self.other_vals = [np.zeros((len(p), s)) for p in self.other_pts]

    def _block_state(self, j, poly):
        restriction = cells_mod.line_restriction_roots(*self.frame, poly) if self.lines else None
        vals = [eval_poly_many(poly, pts) if len(pts) else np.zeros(0) for pts in self.other_pts]
        return restriction, vals

    def set_point(self, x: XsPoint):
        self.pvec = to_polys(x, self.n)
        for j in range(1, self.s + 1):
            restriction, vals = self._block_state(j, self.pvec[j - 1])
            self._commit(j, self.pvec[j - 1], restriction, vals)
        return self._objective()

    def _commit(self, j, poly, restriction, vals):
        self.pvec[j - 1] = poly
        self.restrictions[j - 1] = restriction
        for vi, v in enumerate(vals):
            self.other_vals[vi][:, j - 1] = v

    def _objective(self):
        return spectral_power(self._table())

    def _table(self):
        table = np.zeros(2**self.s, dtype=np.int64)
        if self.lines:
            table += cells_mod.cell_table_from_roots(self.restrictions)
        tols = cells_mod._sign_tols(self.pvec, None)
        for vals in self.other_vals:
            idx, interior = cells_mod.pack_signs(vals, tols)
            table[np.unique(idx[interior])] += 1
        return table

    def try_block(self, j, x_cand: XsPoint):
        poly = block_poly(x_cand, j, self.n)
        state = self._block_state(j, poly)
        saved = (self.pvec[j - 1], self.restrictions[j - 1],
                 [v[:, j - 1].copy() for v in self.other_vals])
        self._commit(j, poly, *state)
        obj = self._objective()
        return obj, (j, saved)

    def accept(self, handle):
        pass  # state already committed by try_block

    def reject(self, handle):
        j, (poly, restriction, cols) = handle
        self.pvec[j - 1] = poly
        self.restrictions[j - 1] = restriction
        for vi, col in enumerate(cols):
            self.other_vals[vi][:, j - 1] = col


class _SmoothEvaluator:
    """Same incremental structure over fixed tube clouds at one delta level.

    The level's clouds are stacked into one point array, and the monomials of
    the largest schedule basis are tabulated on it once per level; a smaller
    graded-lex basis is a prefix of its columns. A one-block proposal is then
    one matrix-vector product into column j of the stacked (N, s) values plus
    one pass of mollifier.mollified_rows over them.
    """

    def __init__(self, Gamma, n, s, mcfg: moll_mod.MollConfig, bases):
        self.n = n
        self.mcfg = mcfg
        clouds = moll_mod.family_clouds(Gamma, mcfg)
        self.sizes = [len(c.points) for c in clouds]
        self.weights = [c.weight for c in clouds]
        ends = np.cumsum(self.sizes)
        basis = max(bases, key=len)
        self.mono = np.empty((ends[-1], len(basis)))
        for c, stop in zip(clouds, ends):
            # cloud by cloud, so the gather temporary stays cloud-sized
            self.mono[stop - len(c.points) : stop] = monomial_matrix(c.points, basis)
        self.vals = np.zeros((ends[-1], s), order="F")  # contiguous columns

    def _column(self, j, poly):
        self.vals[:, j - 1] = self.mono[:, : len(poly.coeffs)] @ poly.coeffs

    def set_point(self, x: XsPoint):
        for j, poly in enumerate(to_polys(x, self.n), start=1):
            self._column(j, poly)
        return self._objective()

    def _objective(self):
        rows = moll_mod.mollified_rows(self.vals, self.sizes, self.weights, self.mcfg, self.n)
        return spectral_power(rows.sum(axis=0))

    def try_block(self, j, x_cand: XsPoint):
        poly = block_poly(x_cand, j, self.n)
        saved = self.vals[:, j - 1].copy()
        self._column(j, poly)
        return self._objective(), (j, saved)

    def accept(self, handle):
        pass

    def reject(self, handle):
        j, col = handle
        self.vals[:, j - 1] = col


def _anneal(evaluator, x, obj, iters, step_init, step_final, rng, trace, it_offset):
    s = x.s
    for k in range(iters):
        frac = k / max(iters - 1, 1)
        h = step_init * (step_final / step_init) ** frac
        j = int(rng.integers(1, s + 1))
        direction = rng.normal(size=block_size(j))
        x_cand = _step_block(x, j, direction, h)
        cand, handle = evaluator.try_block(j, x_cand)
        if cand <= obj:
            x, obj = x_cand, cand
            evaluator.accept(handle)
            trace.append((it_offset + k, float(obj)))
        else:
            evaluator.reject(handle)
        if obj == 0.0:
            break
    return x, obj


def partition_varieties(Gamma: list[VarietySpec], cfg: SolveConfig) -> PartitionReport:
    """Best-of-restarts annealed search; the report always uses discrete counts."""
    n = _ambient(Gamma)
    if n != cfg.n:
        raise ValueError(f"config n = {cfg.n} but varieties live in R^{n}")
    ks = {g.k for g in Gamma}
    if len(ks) != 1:
        raise ValueError("varieties must share their dimension k")
    k = ks.pop()
    sched = degree_schedule(n, cfg.s)
    D = sum(sched)
    sampling = cfg.sampling or SamplingConfig(R=4.0, seed=cfg.seed)
    bases = [monomial_basis(n, Dj) for Dj in sched]

    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, 2, r))
        x = random_point(cfg.s, (cfg.seed, 1, r))
        trace: list = []
        ev_table = None  # the incremental table at x, checked against cells.counts
        if cfg.objective == "discrete":
            ev = _DiscreteEvaluator(Gamma, n, cfg.s, sampling, cfg.exact_lines)
            obj = ev.set_point(x)
            trace.append((-1, float(obj)))
            x, obj = _anneal(
                ev, x, obj, cfg.iters, cfg.step_init, cfg.step_final, rng, trace, 0
            )
            ev_table = ev._table()
        else:
            offset = 0
            per_level = max(cfg.iters // len(cfg.delta_grid), 20)
            for level, delta in enumerate(cfg.delta_grid):
                mcfg = moll_mod.schedule(delta, bases, cfg.mc_count, (cfg.seed, 3, level))
                ev = _SmoothEvaluator(Gamma, n, cfg.s, mcfg, bases)
                obj = ev.set_point(x)
                if level == 0:
                    trace.append((-1, float(obj)))
                x, obj = _anneal(
                    ev, x, obj, per_level, cfg.step_init, cfg.step_final, rng, trace, offset
                )
                del ev  # one level's caches alive at a time
                offset += per_level
            obj = objective_discrete(Gamma, x, sampling, cfg.exact_lines)
        key = (obj, r)
        if best is None or key < best[0]:
            best = (key, x, trace, ev_table)

    _, x, trace, ev_table = best
    pvec = to_polys(x, n)
    table = cells_mod.counts(Gamma, pvec, sampling, exact_lines=cfg.exact_lines)
    if ev_table is not None and not np.array_equal(ev_table, table.table):
        i = int(np.flatnonzero(ev_table != table.table)[0])
        raise SelfCheckError(
            f"incremental count {ev_table[i]} differs from cells.counts {table.table[i]} "
            f"in cell {cells_mod.index_w(i, cfg.s)}"
        )
    max_count = int(table.table.max())
    bound_ratio = max_count / (len(Gamma) * float(D) ** (k - n))
    return PartitionReport(
        pvec=pvec,
        counts=table,
        spectrum=wht(table),
        max_count=max_count,
        bound_ratio=bound_ratio,
        objective=float(spectral_power(table.table)),
        trace=trace,
        meta={
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
            "exact_lines": cfg.exact_lines,
        },
    )


# ---------------------------------------------------------------------------
# Point partitioning by sequential bisection.


def _imbalances(vals, part, alive, n_parts, tau=1e-9):
    pos = (vals > tau) & alive
    neg = (vals < -tau) & alive
    pos_c = np.bincount(part[pos], minlength=n_parts)
    neg_c = np.bincount(part[neg], minlength=n_parts)
    return np.abs(pos_c - neg_c)


def _bisect_score(vals, part, alive, n_parts):
    imb = _imbalances(vals, part, alive, n_parts)
    return int(imb.max()), int(np.sum(imb.astype(np.int64) ** 2))


def _smoothed_residual(M, part, alive, c, n_parts, sigma):
    v = M @ c
    th = np.tanh(v / sigma)
    F = np.bincount(part[alive], weights=th[alive], minlength=n_parts)
    return v, th, F


def _smooth_descent(M, part, alive, c, n_parts, sigma_levels=9, newton_iters=12):
    """Drive the smoothed signed imbalances to zero by damped Newton steps,
    sharpening the tanh surrogate toward the true sign counts."""
    c = c / np.linalg.norm(c)
    v0 = M @ c
    scale = float(np.median(np.abs(v0[alive]))) if np.any(alive) else 1.0
    sigma = max(scale, 1e-9)
    for _level in range(sigma_levels):
        for _ in range(newton_iters):
            v, th, F = _smoothed_residual(M, part, alive, c, n_parts, sigma)
            err = float(np.abs(F).max())
            if err < 0.25:
                break
            W = (1.0 - th**2) / sigma
            W[~alive] = 0.0
            J = np.zeros((n_parts, M.shape[1]))
            np.add.at(J, part, M * W[:, None])
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
                _, _, Fc = _smoothed_residual(M, part, alive, cand, n_parts, sigma)
                if float(np.sum(Fc**2)) < base:
                    c = cand
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        sigma *= 0.4
    return c


def _polish(M, part, alive, c, n_parts, rng, proposals=300):
    """Hill climb directly on (max imbalance, sum of squares)."""
    best = c
    best_score = _bisect_score(M @ c, part, alive, n_parts)
    for k in range(proposals):
        h = 0.3 * (0.03 / 0.3) ** (k / max(proposals - 1, 1))
        cand = best + h * rng.normal(size=len(best))
        cand /= np.linalg.norm(cand)
        score = _bisect_score(M @ cand, part, alive, n_parts)
        if score <= best_score:
            best, best_score = cand, score
    return best, best_score


def partition_points(X, s: int, cfg: SolveConfig) -> PartitionReport:
    """Sequential bisection: step j picks one unit-coefficient polynomial that
    minimizes the worst signed imbalance over all current parts, then refines
    the parts by its sign. Reports per-step imbalances and k = 0 counts."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("need a nonempty (N, n) point array")
    n = X.shape[1]
    sched = degree_schedule(n, s)
    D = sum(sched)
    part = np.zeros(len(X), dtype=np.int64)
    alive = np.ones(len(X), dtype=bool)
    pvec = []
    imbalance_trace = []
    for j in range(1, s + 1):
        basis = monomial_basis(n, sched[j - 1])
        subdim = block_size(j)
        M = monomial_matrix(X, basis)[:, :subdim]
        n_parts = 2 ** (j - 1)
        best_c, best_score = None, None
        for start in range(cfg.restarts):
            rng = np.random.default_rng((cfg.seed, 4, j, start))
            c0 = rng.normal(size=subdim)
            c0 /= np.linalg.norm(c0)
            c1 = _smooth_descent(M, part, alive, c0, n_parts)
            c2, score = _polish(M, part, alive, c1, n_parts, rng, proposals=cfg.iters // 2)
            if best_score is None or score < best_score:
                best_c, best_score = c2, score
        coeffs = np.zeros(len(basis))
        coeffs[:subdim] = best_c
        pvec.append(Polynomial(basis, coeffs))
        vals = M @ best_c
        imb = _imbalances(vals, part, alive, n_parts)
        sizes = np.bincount(part[alive], minlength=n_parts)
        for p in range(n_parts):
            imbalance_trace.append(
                {"step": j, "part": p, "size": int(sizes[p]), "imbalance": int(imb[p])}
            )
        tau = 1e-9
        boundary = np.abs(vals) <= tau
        alive &= ~boundary
        part = part | ((vals < -tau).astype(np.int64) << (j - 1))

    table = point_counts(X, pvec)
    max_count = int(table.table.max())
    bound_ratio = max_count / (len(X) * float(D) ** (0 - n))
    return PartitionReport(
        pvec=pvec,
        counts=table,
        spectrum=wht(table),
        max_count=max_count,
        bound_ratio=bound_ratio,
        objective=float(spectral_power(table.table)),
        trace=imbalance_trace,
        meta={
            "s": s,
            "n": n,
            "k": 0,
            "D": D,
            "degree_schedule": sched,
            "seed": cfg.seed,
            "objective_kind": "bisection",
            "restarts": cfg.restarts,
            "num_points": len(X),
        },
    )
