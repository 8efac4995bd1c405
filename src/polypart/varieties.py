"""Variety specifications: implicit equations plus parametric samplers.

Supported parametric kinds are lines, circles, and affine k-planes; each
synthesizes its own implicit defining polynomials so sampled points can be
residual-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import Polynomial, eval_poly_many, from_terms

_ORTHO_TOL = 1e-9


class UnsupportedVarietyError(ValueError):
    """Raised when an operation needs a kind of variety it was not given."""


# Each sampler keeps `normals`, an orthonormal basis of the complement of its
# direction or frame span, computed once when the variety is built.


@dataclass
class LineSampler:
    point: np.ndarray
    direction: np.ndarray  # unit
    normals: np.ndarray  # (n-1, n)


@dataclass
class CircleSampler:
    center: np.ndarray
    radius: float
    frame: np.ndarray  # (2, n) orthonormal plane frame
    normals: np.ndarray  # (n-2, n)


@dataclass
class PlaneSampler:
    point: np.ndarray
    frame: np.ndarray  # (k, n) orthonormal
    normals: np.ndarray  # (n-k, n)


@dataclass
class VarietySpec:
    n: int
    k: int
    defining: list[Polynomial]
    sampler: LineSampler | CircleSampler | PlaneSampler

    @property
    def kind(self) -> str:
        if isinstance(self.sampler, LineSampler):
            return "line"
        if isinstance(self.sampler, CircleSampler):
            return "circle"
        return "kplane"


@dataclass
class WeightedCloud:
    """Points filling a tube neighborhood, each representing `weight` volume."""

    points: np.ndarray  # (m, n)
    weight: float


def _unit(v, what):
    v = np.asarray(v, dtype=np.float64)
    if abs(np.linalg.norm(v) - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{what} must be a unit vector, |v| = {np.linalg.norm(v)}")
    return v


def _orthonormal(frame, n, what):
    F = np.asarray(frame, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != n:
        raise ValueError(f"{what} must have shape (k, {n}), got {F.shape}")
    gram = F @ F.T
    if not np.allclose(gram, np.eye(F.shape[0]), atol=_ORTHO_TOL):
        raise ValueError(f"{what} rows must be orthonormal")
    return F


def _complement(rows: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the row span."""
    rows = np.atleast_2d(rows)
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[rows.shape[0] :]


def _linear_poly(n: int, normal: np.ndarray, offset: float) -> Polynomial:
    terms = {tuple(np.eye(n, dtype=int)[i]): float(normal[i]) for i in range(n)}
    terms[(0,) * n] = float(offset)
    return from_terms(n, terms, D=1)


def _sphere_poly(n: int, center: np.ndarray, radius: float) -> Polynomial:
    terms: dict[tuple[int, ...], float] = {(0,) * n: float(center @ center - radius**2)}
    for i in range(n):
        e2 = [0] * n
        e2[i] = 2
        terms[tuple(e2)] = 1.0
        e1 = [0] * n
        e1[i] = 1
        terms[tuple(e1)] = float(-2.0 * center[i])
    return from_terms(n, terms, D=2)


def line(point, direction) -> VarietySpec:
    a = np.asarray(point, dtype=np.float64)
    n = a.shape[0]
    if n < 2:
        raise ValueError("a line needs ambient dimension >= 2")
    u = _unit(direction, "line direction")
    if u.shape != (n,):
        raise ValueError("line point/direction dimension mismatch")
    normals = _complement(u[None, :], n)
    defining = [_linear_poly(n, w, -float(w @ a)) for w in normals]
    return VarietySpec(n=n, k=1, defining=defining, sampler=LineSampler(a, u, normals))


def circle(center, radius, frame=None) -> VarietySpec:
    c = np.asarray(center, dtype=np.float64)
    n = c.shape[0]
    if n < 2:
        raise ValueError("a circle needs ambient dimension >= 2")
    if radius <= 0:
        raise ValueError(f"circle radius must be positive, got {radius}")
    if frame is None:
        if n != 2:
            raise ValueError("circle frame is required for n >= 3")
        frame = np.eye(2)
    F = _orthonormal(frame, n, "circle frame")
    if F.shape[0] != 2:
        raise ValueError("circle frame must have exactly 2 rows")
    normals = _complement(F, n)
    defining = [_sphere_poly(n, c, float(radius))]
    for w in normals:
        defining.append(_linear_poly(n, w, -float(w @ c)))
    sampler = CircleSampler(c, float(radius), F, normals)
    return VarietySpec(n=n, k=1, defining=defining, sampler=sampler)


def kplane(point, frame) -> VarietySpec:
    """Affine k-plane; an empty frame gives a single-point (k = 0) variety."""
    a = np.asarray(point, dtype=np.float64)
    n = a.shape[0]
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        frame = frame.reshape(0, n)
    F = _orthonormal(frame, n, "k-plane frame")
    k = F.shape[0]
    if k >= n:
        raise ValueError(f"need variety dimension k < n, got k={k}, n={n}")
    normals = _complement(F, n)
    defining = [_linear_poly(n, w, -float(w @ a)) for w in normals]
    return VarietySpec(n=n, k=k, defining=defining, sampler=PlaneSampler(a, F, normals))


def build(kind: str, params: dict) -> VarietySpec:
    """Dispatch constructor used by instance files."""
    if kind == "line":
        return line(params["point"], params["dir"])
    if kind == "circle":
        return circle(params["center"], params["radius"], params.get("frame"))
    if kind == "kplane":
        return kplane(params["point"], params["frame"])
    raise ValueError(f"unsupported variety kind {kind!r}")


def residuals(spec: VarietySpec, X: np.ndarray) -> np.ndarray:
    """max_j |p_j(x)| per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    vals = np.stack([np.abs(eval_poly_many(p, X)) for p in spec.defining], axis=1)
    return vals.max(axis=1)


def _line_interval(a, u, R):
    # |a + t u| <= R  <=>  t^2 + 2 (a.u) t + |a|^2 - R^2 <= 0
    b = float(a @ u)
    c = float(a @ a - R * R)
    disc = b * b - c
    if disc <= 0:
        return None
    r = math.sqrt(disc)
    return (-b - r, -b + r)


def _circle_arc(sampler: CircleSampler, R):
    # |x(theta)|^2 = A + Bm cos(theta - phi) <= R^2 on a single arc
    c, r, (u, v) = sampler.center, sampler.radius, sampler.frame
    A = float(c @ c + r * r)
    bc = 2.0 * r * float(c @ u)
    bs = 2.0 * r * float(c @ v)
    Bm = math.hypot(bc, bs)
    phi = math.atan2(bs, bc)
    if Bm < 1e-15:
        return (0.0, 2.0 * math.pi) if A <= R * R else None
    q = (R * R - A) / Bm
    if q >= 1.0:
        return (0.0, 2.0 * math.pi)
    if q < -1.0:
        return None
    alpha = math.acos(q)
    return (phi + alpha, phi + 2.0 * math.pi - alpha)


def _plane_disk(sampler: PlaneSampler, R):
    # parameters z with |point + F^T z| <= R form a ball around -F @ point
    a, F = sampler.point, sampler.frame
    b = F @ a
    rho2 = R * R - float(a @ a - b @ b)
    if rho2 <= 0:
        return None
    return (-b, math.sqrt(rho2))


def region_measure(spec: VarietySpec, R: float) -> float:
    """k-volume of the sampled portion of the variety inside B_R (closed form)."""
    s = spec.sampler
    if isinstance(s, LineSampler):
        seg = _line_interval(s.point, s.direction, R)
        return 0.0 if seg is None else seg[1] - seg[0]
    if isinstance(s, CircleSampler):
        arc = _circle_arc(s, R)
        return 0.0 if arc is None else s.radius * (arc[1] - arc[0])
    disk = _plane_disk(s, R)
    if disk is None:
        return 0.0
    k = spec.k
    return _ball_volume(k) * disk[1] ** k


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _stratified(rng, lo, hi, count):
    h = (hi - lo) / count
    return lo + (np.arange(count) + rng.uniform(size=count)) * h


def _ball_points(rng, count, d, radius):
    g = rng.normal(size=(count, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / d)
    return g * r


def _sample_params(spec: VarietySpec, R: float, count: int, rng):
    """Sample parameters and points on the variety inside B_R."""
    s = spec.sampler
    if isinstance(s, LineSampler):
        seg = _line_interval(s.point, s.direction, R)
        if seg is None:
            return None, np.zeros((0, spec.n))
        t = _stratified(rng, seg[0], seg[1], count)
        return t, s.point[None, :] + t[:, None] * s.direction[None, :]
    if isinstance(s, CircleSampler):
        arc = _circle_arc(s, R)
        if arc is None:
            return None, np.zeros((0, spec.n))
        theta = _stratified(rng, arc[0], arc[1], count)
        u, v = s.frame
        pts = (
            s.center[None, :]
            + s.radius * np.cos(theta)[:, None] * u[None, :]
            + s.radius * np.sin(theta)[:, None] * v[None, :]
        )
        return theta, pts
    disk = _plane_disk(s, R)
    if disk is None:
        return None, np.zeros((0, spec.n))
    z0, rho = disk
    if spec.k == 0:
        z = np.zeros((count, 0))
    else:
        z = z0[None, :] + _ball_points(rng, count, spec.k, rho)
    return z, s.point[None, :] + z @ s.frame


def sample_in_ball(spec: VarietySpec, R: float, count: int, seed) -> np.ndarray:
    """Deterministic points on the variety inside B_R; empty when they miss it."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    _, pts = _sample_params(spec, R, count, rng)
    return pts


def _perp_frames(spec: VarietySpec, params):
    """Orthonormal (n-k) perpendicular frame at each sampled parameter."""
    s = spec.sampler
    if isinstance(s, (LineSampler, PlaneSampler)):
        return np.broadcast_to(s.normals, (len(params),) + s.normals.shape)
    u, v = s.frame
    radial = np.cos(params)[:, None] * u[None, :] + np.sin(params)[:, None] * v[None, :]
    frames = np.empty((len(params), spec.n - 1, spec.n))
    frames[:, 0, :] = radial
    frames[:, 1:, :] = s.normals[None, :, :]
    return frames


def tube_sample(spec: VarietySpec, delta: float, R: float, count: int, seed) -> WeightedCloud:
    """Monte Carlo fill of the delta-tube around the variety, clipped to B_R.

    Base points are sampled on the variety inside B_(R+delta) and jittered
    uniformly in the perpendicular delta-ball, which fills the tube uniformly
    (exactly for flats, up to O(delta * curvature) density bias for circles).
    Each kept point represents weight = (k-volume of base region) *
    (perpendicular ball volume) / count, so total weight estimates
    vol(N_delta gamma intersect B_R).
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    rng = np.random.default_rng(seed)
    params, base = _sample_params(spec, R + delta, count, rng)
    if len(base) == 0:
        return WeightedCloud(np.zeros((0, spec.n)), 0.0)
    d_perp = spec.n - spec.k
    frames = _perp_frames(spec, params)
    z = _ball_points(rng, count, d_perp, delta)
    pts = base + np.einsum("mp,mpn->mn", z, frames)
    keep = np.linalg.norm(pts, axis=1) <= R
    L = region_measure(spec, R + delta)
    weight = L * _ball_volume(d_perp) * delta**d_perp / count
    return WeightedCloud(pts[keep], weight)


def distance_to(spec: VarietySpec, X: np.ndarray) -> np.ndarray:
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
    perp2 = np.maximum(np.linalg.norm(d, axis=1) ** 2 - inplane**2, 0.0)
    return np.sqrt((inplane - s.radius) ** 2 + perp2)
