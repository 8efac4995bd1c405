"""Continuous approximation of cell-entry indicators via tube integrals.

The ramp eta is 0 below its threshold and 1 above twice the threshold. The
mollified indicator applies the ramp to a Monte Carlo estimate of the tube
integral of eta(min |P_i|), restricted to one sign cell inside B_R and scaled
by delta^(-n). The thresholds follow a certified schedule: the gradient bound
B at radius R(delta)+1 always satisfies B * delta < eps(delta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cells import pack_signs, w_index
# eval_poly_many and wht_table are unused here, but perfbench's tracer
# requires these bindings
from .polyalg import MonomialBasis, Polynomial, eval_poly_many, grad_bound, monomial_matrix
from .spectrum import wht_table  # noqa: F401
from .varieties import VarietySpec, WeightedCloud, tube_sample, tube_sample_many

# eps(delta) = EPS_FACTOR * B * delta keeps the certificate strict for all
# delta in (0, 1) while still letting eps decay to 0 with delta
EPS_FACTOR = 1.1
DEFAULT_MC_COUNT = 4096


class ScheduleError(RuntimeError):
    """Raised when a threshold schedule cannot certify its gradient condition."""


def check_delta_grid(grid) -> None:
    """Raise ValueError unless the smoothing levels are nonempty, each in
    (0, 1), and strictly decreasing."""
    if not len(grid):
        raise ValueError("need a nonempty delta grid")
    if not all(0.0 < d < 1.0 for d in grid):
        raise ValueError("delta grid entries must lie in (0, 1)")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")


@dataclass
class MollConfig:
    delta: float
    eps: float
    radius: float
    mc_count: int = DEFAULT_MC_COUNT
    seed: int | object = 0


def eta(eps: float, t):
    """Continuous ramp: 0 for t <= eps, 1 for t >= 2 eps, linear between."""
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    return np.clip((np.asarray(t, dtype=np.float64) - eps) / eps, 0.0, 1.0)


def schedule(
    delta: float,
    bases: list[MonomialBasis],
    mc_count: int = DEFAULT_MC_COUNT,
    seed=0,
) -> MollConfig:
    """Certified thresholds for one smoothing level delta.

    R(delta) = 1 + log2(1/delta) grows slowly; eps(delta) = 1.1 * B * delta
    where B bounds |grad Q| over unit-coefficient Q on the given bases inside
    B_(R+1). The certificate B * delta < eps is asserted and failure raises.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got {delta}")
    if not bases:
        raise ValueError("need at least one basis")
    R = 1.0 + math.log2(1.0 / delta)
    B = max(grad_bound(b, R + 1.0) for b in bases)
    eps = EPS_FACTOR * max(B, 1e-12) * delta
    if not B * delta < eps:
        raise ScheduleError(
            f"certificate violated: B*delta = {B * delta} not below eps = {eps}"
        )
    return MollConfig(delta=delta, eps=eps, radius=R, mc_count=mc_count, seed=seed)


def family_clouds(Gamma: list[VarietySpec], cfg: MollConfig) -> list[WeightedCloud]:
    """One tube cloud per variety, on seed substream (cfg.seed, i), sampled
    in one pass over the family."""
    seeds = [(cfg.seed, i) for i in range(len(Gamma))]
    return tube_sample_many(Gamma, cfg.delta, cfg.radius, cfg.mc_count, seeds)


def mollified_rows(cols, sizes, weights, cfg: MollConfig, n: int) -> np.ndarray:
    """Mollified rows (m, 2^s) of m tube clouds from their value columns.

    cols[j] holds P_j at the N cloud points stacked in cloud order, cloud c
    owning sizes[c] consecutive points of volume weights[c] each. A single
    bincount keyed by c * 2^s + cell gives every cloud's tube integral.
    """
    m, ncell = len(sizes), 2 ** len(cols)
    idx, interior = pack_signs(cols, np.zeros(len(cols)))
    low = functools.reduce(np.minimum, map(np.abs, cols))
    inner = eta(cfg.eps, low) * np.repeat(weights, sizes)
    key = np.repeat(np.arange(m) * ncell, sizes) + idx
    totals = np.bincount(key[interior], weights=inner[interior], minlength=m * ncell)
    return eta(cfg.eps, totals.reshape(m, ncell) * cfg.delta ** (-n))


def i_delta(spec: VarietySpec, pvec, w, cfg: MollConfig, cloud=None) -> float:
    """Mollified cell-entry indicator in [0, 1] for one cell; without a
    cloud, the variety's tube is sampled on cfg.seed."""
    if cloud is None:
        cloud = tube_sample(spec, cfg.delta, cfg.radius, cfg.mc_count, cfg.seed)
    return float(mollified_table([spec], pvec, cfg, [cloud])[w_index(w)])


class LevelFrame:
    """One level's stacked tube clouds with the monomials of `basis` on them,
    tabulated cloud by cloud to keep the gather temporary cloud-sized. A
    smaller graded-lex basis is a prefix of its columns, so column(p) is one
    matrix-vector product, and table(cols) one pass of mollified_rows."""

    def __init__(self, Gamma, cfg: MollConfig, basis: MonomialBasis, clouds=None):
        if clouds is None:
            clouds = family_clouds(Gamma, cfg)
        self.cfg, self.n = cfg, basis.n
        self.sizes = [len(c.points) for c in clouds]
        self.weights = [c.weight for c in clouds]
        self.mono = np.empty((sum(self.sizes), len(basis)))
        for c, stop in zip(clouds, np.cumsum(self.sizes)):
            self.mono[stop - len(c.points) : stop] = monomial_matrix(c.points, basis)

    def column(self, p: Polynomial) -> np.ndarray:
        return self.mono[:, : len(p.coeffs)] @ p.coeffs

    def table(self, cols) -> np.ndarray:
        return mollified_rows(cols, self.sizes, self.weights, self.cfg, self.n).sum(axis=0)


def mollified_table(
    Gamma: list[VarietySpec],
    pvec,
    cfg: MollConfig,
    clouds: list[WeightedCloud] | None = None,
) -> np.ndarray:
    """Sum of mollified rows over the family; clouds may be precomputed.

    Without explicit clouds each variety gets its own seed substream so the
    estimate is deterministic in (Gamma order, cfg.seed).
    """
    frame = LevelFrame(Gamma, cfg, max((p.basis for p in pvec), key=len), clouds)
    return frame.table([frame.column(p) for p in pvec])
