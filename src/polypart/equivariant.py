"""Equivariant maps on the product of spheres and their zero structure.

Coordinates inside block j: slot 0 is t_j, and slot i >= 1 names x_v for the
nonzero bit vector v = 2^(j-1) + i - 1, so v ranges over exactly those v whose
highest set bit is j. The model map sends x_v times the product of t_j over
lower set bits of v; its zeros are the 2^s points with t_j = +-1, x_v = 0.
Zeros of perturbed equivariant maps are found by homotopy continuation from
the model zeros, with Newton correction in per-block charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sphereprod import XsPoint, block_size, flip, random_point, xs_dim

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
    kind: str = "model"
    lam: float = 0.0

    def __call__(self, x: XsPoint) -> np.ndarray:
        return self.fn(x)


def _lower_t_product(x: XsPoint, v: int) -> float:
    j_top = j_of_v(v)
    prod = 1.0
    for j in range(1, j_top):
        if (v >> (j - 1)) & 1:
            prod *= x.blocks[j - 1][0]
    return prod


def model_g(x: XsPoint) -> np.ndarray:
    """The model map: x_v times the t_j of the lower set bits of v."""
    out = np.empty(xs_dim(x.s))
    for v in range(1, 2**x.s):
        j, slot = slot_of_v(v)
        out[v - 1] = x.blocks[j - 1][slot] * _lower_t_product(x, v)
    return out


def model_map(s: int) -> EquivariantMap:
    return EquivariantMap(s, model_g, kind="model", lam=0.0)


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
    N = xs_dim(x.s)
    J = np.zeros((N, N))
    for v in range(1, 2**x.s):
        J[v - 1, v - 1] = _lower_t_product(x, v)
    return J


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
    rng = np.random.default_rng(seed)
    n_terms = 3
    vectors = {}
    alphas = {}
    betas = {}
    for v in range(1, 2**s):
        support = [j for j in range(1, s + 1) if (v >> (j - 1)) & 1]
        vecs = []
        for _ in range(n_terms):
            per_j = {}
            for j in support:
                a = rng.normal(size=block_size(j))
                per_j[j] = a / np.linalg.norm(a)
            vecs.append(per_j)
        vectors[v] = vecs
        alphas[v] = rng.normal(size=n_terms) / np.sqrt(n_terms)
        betas[v] = rng.normal(size=(n_terms, s)) * (0.5 / s)

    def fn(x: XsPoint) -> np.ndarray:
        out = model_g(x)
        t2 = np.array([b[0] ** 2 for b in x.blocks])
        for v in range(1, 2**s):
            acc = 0.0
            for r in range(n_terms):
                term = alphas[v][r] * (1.0 + betas[v][r] @ t2)
                for j, a in vectors[v][r].items():
                    term *= float(a @ x.blocks[j - 1])
                acc += term
            out[v - 1] += lam * acc
        return out

    return EquivariantMap(s, fn, kind="perturbed" if lam else "model", lam=lam)


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
    y = np.concatenate([np.delete(b, d) for b, d in zip(x.blocks, drops)])
    return y, drops, signs


def _lift(y: np.ndarray, s: int, drops, signs) -> XsPoint | None:
    blocks = []
    pos = 0
    for j in range(1, s + 1):
        m = block_size(j) - 1
        part = y[pos : pos + m]
        pos += m
        rest = 1.0 - float(part @ part)
        if rest <= 1e-12:
            return None  # left the chart's valid patch
        b = np.empty(m + 1)
        d = drops[j - 1]
        b[:d] = part[:d]
        b[d] = signs[j - 1] * np.sqrt(rest)
        b[d + 1 :] = part[d:]
        blocks.append(b)
    return XsPoint(tuple(blocks))


def _newton_in_chart(fun, x: XsPoint, cfg: ContinuationConfig):
    """Newton-correct x toward fun = 0; returns (point, residual, ok)."""
    y, drops, signs = _chart(x)
    s = x.s
    cur = _lift(y, s, drops, signs)
    fx = fun(cur)
    res = float(np.abs(fx).max())
    for _ in range(cfg.newton_max):
        if res < cfg.newton_tol:
            return cur, res, True
        N = len(y)
        J = np.empty((N, N))
        for i in range(N):
            e = np.zeros(N)
            e[i] = cfg.fd_step
            xp = _lift(y + e, s, drops, signs)
            xm = _lift(y - e, s, drops, signs)
            if xp is None or xm is None:
                return cur, res, False
            J[:, i] = (fun(xp) - fun(xm)) / (2.0 * cfg.fd_step)
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return cur, res, False
        if not np.all(np.isfinite(step)):
            return cur, res, False
        y = y + step
        nxt = _lift(y, s, drops, signs)
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
    ContinuationError when all 2^s starts fail.
    """
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
