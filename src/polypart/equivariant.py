"""Equivariant maps on the product of spheres and their zero structure.

Coordinates inside block j: slot 0 is t_j, and slot i >= 1 names x_v for the
nonzero bit vector v = 2^(j-1) + i - 1, so v ranges over exactly those v whose
highest set bit is j. The model map sends x_v times the product of t_j over
lower set bits of v; its zeros are the 2^s points with t_j = +-1, x_v = 0.
Zeros of perturbed equivariant maps are found by homotopy continuation from
the model zeros. Each Newton step moves in the tangent space of the sphere
product and normalises every block back onto its sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .sphereprod import XsPoint, block_size, flip, random_point, retract

# largest s whose 2^s model zeros g_zeros enumerates
MAX_ZERO_S = 10

# continuation: t-steps from g to f, Newton stopping rule per step, and the
# smallest t-step a failed step may halve down to before the start is dropped
T_STEPS = 32
NEWTON_TOL = 1e-10
NEWTON_MAX = 16
MIN_STEP = 1.0 / 1024.0


class ContinuationError(RuntimeError):
    """All continuation starts failed; carries the per-start final residuals."""

    def __init__(self, residuals):
        super().__init__(
            f"continuation failed from all {len(residuals)} starts; "
            f"final residuals {residuals}"
        )
        self.residuals = residuals


def j_of_v(v: int) -> int:
    """Highest set-bit position (1-based) of a nonzero frequency."""
    if v <= 0:
        raise ValueError(f"need nonzero v, got {v}")
    return v.bit_length()


def slot_of_v(v: int) -> tuple[int, int]:
    """(block j, coordinate slot) carrying x_v."""
    j = j_of_v(v)
    return j, v - 2 ** (j - 1) + 1


@dataclass
class EquivariantMap:
    """Map X_s -> R^(2^s - 1) indexed by nonzero v, odd in each flipped block.

    jac returns the (2^s - 1) x (2^s - 1 + s) derivative of fn with respect
    to the concatenated blocks; continuation's Newton steps apply it to
    steps tangent to the spheres.
    """

    s: int
    fn: object
    jac: object

    def __call__(self, x: XsPoint) -> np.ndarray:
        return self.fn(x)


def _lower_t(ts) -> np.ndarray:
    """Entry v - 1: the product of ts[j - 1] over the lower set bits j of v,
    taken in ascending j (each doubling appends the last table times t_j)."""
    prod = np.array([1.0])
    parts = [prod]
    for t in ts[:-1]:
        prod = np.concatenate((prod, prod * t))
        parts.append(prod)
    return np.concatenate(parts)


def model_g(x: XsPoint) -> np.ndarray:
    """The model map: x_v times the t_j of the lower set bits of v."""
    return np.concatenate([b[1:] for b in x.blocks]) * _lower_t([b[0] for b in x.blocks])


@functools.lru_cache(maxsize=None)
def _model_jac_index(s: int):
    """Where model_jac's nonzeros go: (flat positions, xi, ti), entry e being
    X[xi[e]] * prod(T[ti[e]]) with X the x_v and T the t_j, each followed by a
    1.0 that pads the rows of ti. Built on first use for each s."""
    N = 2**s - 1
    pos, xi, ti = [], [], []
    for v in range(1, 2**s):
        j = v.bit_length()
        lower = [i - 1 for i in range(1, j) if (v >> (i - 1)) & 1]
        # x_v's column: the t-product of v's lower bits
        pos.append((v - 1) * (N + s) + v + j - 1)
        xi.append(N)
        ti.append(lower)
        # t_i's column for each lower set bit i: x_v times the other t's
        for i in lower:
            pos.append((v - 1) * (N + s) + 2**i + i - 1)
            xi.append(v - 1)
            ti.append([k for k in lower if k != i])
    pad = np.full((len(ti), max(1, s - 1)), s)
    for e, ks in enumerate(ti):
        pad[e, : len(ks)] = ks
    return np.array(pos), np.array(xi), pad


def model_jac(x: XsPoint) -> np.ndarray:
    """Derivative of model_g with respect to the concatenated blocks of x.

    Block j starts at column 2^(j-1) + j - 2 with t_j, so x_v sits in column
    v + j - 1. Row v - 1 holds the t-product of v's lower bits at x_v, and at
    each lower set bit i's t_i column x_v times the product without t_i.
    """
    pos, xi, ti = _model_jac_index(x.s)
    X = np.concatenate([b[1:] for b in x.blocks] + [[1.0]])
    T = np.array([b[0] for b in x.blocks] + [1.0])
    J = np.zeros((2**x.s - 1, 2**x.s - 1 + x.s))
    J.ravel()[pos] = X[xi] * T[ti].prod(axis=1)
    return J


def model_map(s: int) -> EquivariantMap:
    return EquivariantMap(s, model_g, model_jac)


def g_zeros(s: int) -> list[XsPoint]:
    """All 2^s zeros of the model map: t_j = +-1 per block, x_v = 0."""
    if s > MAX_ZERO_S:
        raise ValueError(f"zero enumeration supports s <= {MAX_ZERO_S}, got {s}")
    out = []
    for mask in range(2**s):
        blocks = []
        for j in range(1, s + 1):
            b = np.zeros(block_size(j))
            b[0] = -1.0 if (mask >> (j - 1)) & 1 else 1.0
            blocks.append(b)
        out.append(XsPoint(tuple(blocks)))
    return out


def jacobian_g(x: XsPoint) -> np.ndarray:
    """Derivative of the model map at one of its zeros, in the x_v tangent frame.

    Diagonal with entries +-1: entry v is the product of t_j over lower set
    bits of v. Rows and columns are ordered by the integer value of v.
    """
    for j, b in enumerate(x.blocks, start=1):
        if abs(abs(b[0]) - 1.0) > 1e-9 or np.abs(b[1:]).max(initial=0.0) > 1e-9:
            raise ValueError(f"block {j} is not at a model zero")
    return np.diag(_lower_t([b[0] for b in x.blocks]))


def check_equivariance(f: EquivariantMap, trials: int = 100, seed=0) -> float:
    """Max violation of the sign rule over random points and flips."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(trials):
        x = random_point(f.s, rng.integers(2**63))
        fx = f(x)
        j = int(rng.integers(1, f.s + 1))
        fy = f(flip(x, j))
        signs = np.array(
            [-1.0 if (v >> (j - 1)) & 1 else 1.0 for v in range(1, 2**f.s)]
        )
        worst = max(worst, float(np.abs(fy - signs * fx).max()))
    return worst


def random_equivariant(s: int, lam: float, seed) -> EquivariantMap:
    """Model map plus lam times a random smooth equivariant perturbation.

    Every perturbation term is a product over the set bits of v of an odd
    linear functional of that block, times an even smooth function of the
    t-coordinates, so the sign rule holds by construction.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if s > MAX_ZERO_S:
        # checked before any draw: the stacked tables grow as 3 * 2^s, and no
        # continuation can start above MAX_ZERO_S
        raise ValueError(f"need s <= MAX_ZERO_S = {MAX_ZERO_S}, got {s}")
    rng = np.random.default_rng(seed)
    n_terms = 3
    vecs = [[] for _ in range(s)]  # block j's unit vectors, in term order
    alphas, betas = [], []
    for v in range(1, 2**s):
        for r in range(n_terms):
            for j in range(1, s + 1):
                if (v >> (j - 1)) & 1:
                    a = rng.normal(size=block_size(j))
                    vecs[j - 1].append(a / np.linalg.norm(a))
        alphas.append(rng.normal(size=n_terms) / np.sqrt(n_terms))
        betas.append(rng.normal(size=(n_terms, s)) * (0.5 / s))
    # term (v, r) is row (v - 1) * n_terms + r. Rows are stacked as (K, 1, len)
    # so that each row's dot is its own matmul and rounds as a 1-D a @ b does.
    alpha = np.concatenate(alphas)
    beta = np.concatenate(betas)[:, None, :]
    v_of_term = np.arange(1, 2**s).repeat(n_terms)
    factors = [
        (np.flatnonzero((v_of_term >> j) & 1), np.stack(vj)[:, None, :])
        for j, vj in enumerate(vecs)
    ]

    def fn(x: XsPoint) -> np.ndarray:
        out = model_g(x)
        t2 = np.array([b[0] ** 2 for b in x.blocks])  # np.square rounds some t apart
        terms = alpha * (1.0 + (beta @ t2[:, None])[:, 0, 0])
        for b, (ks, a) in zip(x.blocks, factors):
            terms[ks] *= (a @ b[:, None])[:, 0, 0]
        # sum() adds the r columns in order, starting from 0
        out += lam * sum(terms.reshape(-1, n_terms).T)
        return out

    sizes = np.array([block_size(j) for j in range(1, s + 1)])
    t_cols = sizes.cumsum() - sizes
    off_self = ~np.eye(s, dtype=bool)

    def jac(x: XsPoint) -> np.ndarray:
        # term (v, r) is weight * prod_j dot_j, with dot_j = 1 off v's bits;
        # row k of G is its gradient, then the r rows of each v are summed
        t = np.array([b[0] for b in x.blocks])
        weight = alpha * (1.0 + (beta @ (t * t)[:, None])[:, 0, 0])
        dots = np.ones((len(alpha), s))
        G = np.zeros((len(alpha), 2**s - 1 + s))
        for c, (b, (ks, a)) in enumerate(zip(x.blocks, factors)):
            dots[ks, c] = (a @ b[:, None])[:, 0, 0]
            G[ks, t_cols[c] : t_cols[c] + sizes[c]] = a[:, 0, :]
        others = np.where(off_self, dots[:, None, :], 1.0).prod(axis=2)
        G *= (weight[:, None] * others).repeat(sizes, axis=1)
        G[:, t_cols] += (2.0 * alpha * dots.prod(axis=1))[:, None] * beta[:, 0, :] * t
        return model_jac(x) + lam * G.reshape(-1, n_terms, G.shape[1]).sum(axis=1)

    return EquivariantMap(s, fn, jac)


def flip_orbit(x: XsPoint) -> list[XsPoint]:
    out = []
    for mask in range(2**x.s):
        y = x
        for j in range(1, x.s + 1):
            if (mask >> (j - 1)) & 1:
                y = flip(y, j)
        out.append(y)
    return out


@dataclass
class ContinuationResult:
    point: XsPoint
    residual: float
    start_index: int
    orbit: list = field(default_factory=list)
    orbit_residuals: list = field(default_factory=list)


def _newton(fun, jac, x: XsPoint):
    """Newton-correct x toward fun = 0; returns (point, residual, ok).

    jac is fun's derivative with respect to the concatenated blocks. A step d
    solves J d = -fun with each block's part of d orthogonal to its block:
    below J sits one row per block, the block itself in its own columns, which
    makes the system square. The moved blocks are then normalised back onto
    their spheres.
    """
    sizes = [len(b) for b in x.blocks]
    rows = np.repeat(np.arange(x.s), sizes)
    cur = x
    fx = fun(cur)
    res = float(np.abs(fx).max())
    for _ in range(NEWTON_MAX):
        if res < NEWTON_TOL:
            return cur, res, True
        flat = np.concatenate(cur.blocks)
        tangent = np.zeros((x.s, len(flat)))
        tangent[rows, np.arange(len(flat))] = flat
        try:
            step = np.linalg.solve(
                np.vstack((jac(cur), tangent)), np.concatenate((-fx, np.zeros(x.s)))
            )
        except np.linalg.LinAlgError:
            return cur, res, False
        if not np.isfinite(step @ step):  # also refuses a step too long to normalise
            return cur, res, False
        cur = retract(np.split(flat + step, np.cumsum(sizes)[:-1]))
        fx = fun(cur)
        res = float(np.abs(fx).max())
    return cur, res, res < NEWTON_TOL


def _track_from(f: EquivariantMap, x0: XsPoint):
    """Follow the zero of (1-t) g + t f from one model zero to t = 1."""
    x = x0
    t = 0.0
    dt = 1.0 / T_STEPS
    while t < 1.0:
        t_next = min(1.0, t + dt)

        def fun(pt, tv=t_next):
            return (1.0 - tv) * model_g(pt) + tv * f(pt)

        def jac(pt, tv=t_next):
            return (1.0 - tv) * model_jac(pt) + tv * f.jac(pt)

        cand, res, converged = _newton(fun, jac, x)
        if converged:
            x, t = cand, t_next
            dt = min(2.0 * dt, 1.0 / T_STEPS)
        else:
            dt *= 0.5
            if dt < MIN_STEP:
                return x, res, False
    return x, float(np.abs(f(x)).max()), True


def continuation_zero(f: EquivariantMap, s: int) -> ContinuationResult:
    """Track a zero of (1-t) g + t f from each model zero until one reaches t=1.

    Every interpolant is equivariant (the sign rule is linear in the map), so
    the tracked zero stays a genuine equivariant zero. Raises
    ContinuationError when all 2^s starts fail, and ValueError when s is not
    the map's s.
    """
    if s != f.s:
        raise ValueError(f"s = {s} does not match the map's s = {f.s}")
    failures = []
    for start_index, x0 in enumerate(g_zeros(s)):
        x, res, ok = _track_from(f, x0)
        if ok and res < 1e-8:
            orbit = flip_orbit(x)
            return ContinuationResult(
                point=x,
                residual=res,
                start_index=start_index,
                orbit=orbit,
                orbit_residuals=[float(np.abs(f(p)).max()) for p in orbit],
            )
        failures.append(res)
    raise ContinuationError(failures)
