"""Equivariant maps on the product of spheres and their zero structure.

Coordinates inside block j: slot 0 is t_j, and slot i >= 1 names x_v for the
nonzero bit vector v = 2^(j-1) + i - 1, so v ranges over exactly those v whose
highest set bit is j. The model map sends x_v times the product of t_j over
lower set bits of v; its zeros are the 2^s points with t_j = +-1, x_v = 0.
Zeros of perturbed equivariant maps are found by homotopy continuation from
the model zeros, with Newton correction in per-block charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sphereprod import XsPoint, block_size, flip, random_point

# largest s whose 2^s model zeros g_zeros enumerates
MAX_ZERO_S = 10


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
    """Map X_s -> R^(2^s - 1) indexed by nonzero v, odd in each flipped block."""

    s: int
    fn: object

    def __call__(self, x: XsPoint) -> np.ndarray:
        return self.fn(x)


def _lower_t(x: XsPoint) -> np.ndarray:
    """Entry v - 1: the product of t_j over the lower set bits of v, taken in
    ascending j (each doubling appends the last table times t_j)."""
    prod = np.array([1.0])
    parts = [prod]
    for b in x.blocks[:-1]:
        prod = np.concatenate((prod, prod * b[0]))
        parts.append(prod)
    return np.concatenate(parts)


def model_g(x: XsPoint) -> np.ndarray:
    """The model map: x_v times the t_j of the lower set bits of v."""
    return np.concatenate([b[1:] for b in x.blocks]) * _lower_t(x)


def model_map(s: int) -> EquivariantMap:
    return EquivariantMap(s, model_g)


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
    return np.diag(_lower_t(x))


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

    return EquivariantMap(s, fn)


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
class ContinuationConfig:
    t_steps: int = 32
    newton_tol: float = 1e-10
    newton_max: int = 16
    min_step: float = 1.0 / 1024.0
    fd_step: float = 1e-6

    def __post_init__(self):
        for name, ok, want in (
            ("t_steps", self.t_steps >= 1, ">= 1"),
            ("newton_max", self.newton_max >= 1, ">= 1"),
            ("newton_tol", self.newton_tol > 0.0, "> 0"),
            ("fd_step", self.fd_step > 0.0, "> 0"),
            ("min_step", 0.0 < self.min_step <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(f"need {name} {want}, got {getattr(self, name)}")


@dataclass
class ContinuationResult:
    point: XsPoint
    residual: float
    start_index: int
    orbit: list = field(default_factory=list)
    orbit_residuals: list = field(default_factory=list)


def _chart(x: XsPoint):
    drops = [int(np.argmax(np.abs(b))) for b in x.blocks]
    signs = [1.0 if b[d] >= 0 else -1.0 for b, d in zip(x.blocks, drops)]
    y = np.concatenate([p for b, d in zip(x.blocks, drops) for p in (b[:d], b[d + 1 :])])
    return y, drops, signs


def _lift_block(part: np.ndarray, d: int, sign: float) -> np.ndarray | None:
    rest = 1.0 - float(part @ part)
    if rest <= 1e-12:
        return None  # left the chart's valid patch
    b = np.empty(len(part) + 1)
    b[:d] = part[:d]
    b[d] = sign * math.sqrt(rest)
    b[d + 1 :] = part[d:]
    return b


def _lift(y: np.ndarray, drops, signs) -> XsPoint | None:
    # block j + 1 (0-based j) holds chart coordinates 2^j - 1 .. 2^(j+1) - 2
    blocks = tuple(
        _lift_block(y[2**j - 1 : 2 ** (j + 1) - 1], d, sign)
        for j, (d, sign) in enumerate(zip(drops, signs))
    )
    return None if any(b is None for b in blocks) else XsPoint(blocks)


def _newton_in_chart(fun, x: XsPoint, cfg: ContinuationConfig):
    """Newton-correct x toward fun = 0; returns (point, residual, ok).

    A Jacobian column re-lifts only the block of its chart coordinate and keeps
    the other blocks of the lift of y (cur's can differ from those by an ulp).
    """
    y, drops, signs = _chart(x)
    cur = _lift(y, drops, signs)
    fx = fun(cur)
    res = float(np.abs(fx).max())
    N = len(y)
    for _ in range(cfg.newton_max):
        if res < cfg.newton_tol:
            return cur, res, True
        base = _lift(y, drops, signs).blocks
        J = np.empty((N, N))
        for i in range(N):
            e = np.zeros(N)
            e[i] = cfg.fd_step
            j = (i + 1).bit_length() - 1  # 0-based block holding coordinate i
            lo, hi = 2**j - 1, 2 ** (j + 1) - 1
            moved = [_lift_block(z[lo:hi], drops[j], signs[j]) for z in (y + e, y - e)]
            if moved[0] is None or moved[1] is None:
                return cur, res, False
            xp, xm = (XsPoint(base[:j] + (b,) + base[j + 1 :]) for b in moved)
            J[:, i] = (fun(xp) - fun(xm)) / (2.0 * cfg.fd_step)
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return cur, res, False
        if not np.all(np.isfinite(step)):
            return cur, res, False
        y = y + step
        nxt = _lift(y, drops, signs)
        if nxt is None:
            return cur, res, False
        cur = nxt
        fx = fun(cur)
        res = float(np.abs(fx).max())
        # re-chart so the dropped coordinate stays the dominant one
        y, drops, signs = _chart(cur)
    return cur, res, res < cfg.newton_tol


def _track_from(f: EquivariantMap, x0: XsPoint, cfg: ContinuationConfig):
    """Follow the zero of (1-t) g + t f from one model zero to t = 1."""
    x = x0
    t = 0.0
    dt = 1.0 / cfg.t_steps
    res = float(np.abs(f(x)).max())
    while t < 1.0:
        t_next = min(1.0, t + dt)

        def fun(pt, tv=t_next):
            return (1.0 - tv) * model_g(pt) + tv * f(pt)

        cand, res, converged = _newton_in_chart(fun, x, cfg)
        if converged:
            x, t = cand, t_next
            if dt < 1.0 / cfg.t_steps:
                dt = min(2.0 * dt, 1.0 / cfg.t_steps)
        else:
            dt *= 0.5
            if dt < cfg.min_step:
                return x, res, False
    return x, float(np.abs(f(x)).max()), True


def continuation_zero(
    f: EquivariantMap, s: int, cfg: ContinuationConfig | None = None
) -> ContinuationResult:
    """Track a zero of (1-t) g + t f from each model zero until one reaches t=1.

    Every interpolant is equivariant (the sign rule is linear in the map), so
    the tracked zero stays a genuine equivariant zero. Raises
    ContinuationError when all 2^s starts fail, and ValueError when s is not
    the map's s.
    """
    if s != f.s:
        raise ValueError(f"s = {s} does not match the map's s = {f.s}")
    cfg = cfg or ContinuationConfig()
    failures = []
    for start_index, x0 in enumerate(g_zeros(s)):
        x, res, ok = _track_from(f, x0, cfg)
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
