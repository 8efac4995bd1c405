"""Variety specifications: parametric samplers for lines, circles and affine
k-planes, with exact region measures and tube sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unused here, but perfbench's tracer requires this module to bind it
from .polyalg import eval_poly_many  # noqa: F401

_ORTHO_TOL = 1e-9


class UnsupportedVarietyError(ValueError):
    """Raised when an operation needs a kind of variety it was not given."""


# Each sampler keeps `normals`, an orthonormal basis of the complement of its
# direction or frame span, computed once when the variety is built.


@dataclass
class LineSampler:
    point: np.ndarray  # foot point
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
    point: np.ndarray  # foot point
    frame: np.ndarray  # (k, n) orthonormal
    normals: np.ndarray  # (n-k, n)


@dataclass
class VarietySpec:
    n: int
    k: int
    sampler: LineSampler | CircleSampler | PlaneSampler


@dataclass
class WeightedCloud:
    """Points filling a tube neighborhood, each representing `weight` volume."""

    points: np.ndarray  # (m, n)
    weight: float


def _finite(v, what, ndim=None) -> np.ndarray:
    """v as a float64 array of finite real numbers: a number for ndim 0, a
    vector for ndim 1, any shape for None. ValueError for anything else, bools
    and strings included."""
    entries = np.asarray(v, dtype=object)
    if not all(
        isinstance(e, (int, float, np.integer, np.floating)) and not isinstance(e, bool)
        for e in entries.ravel()
    ):
        raise ValueError(f"{what} must hold real numbers, got {v!r}")
    arr = entries.astype(np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {('a number', 'a vector')[ndim]}, got {v!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite, got {v!r}")
    return arr


def _unit(v, what):
    v = _finite(v, what, 1)
    if abs(np.linalg.norm(v) - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{what} must be a unit vector, |v| = {np.linalg.norm(v)}")
    return v


def _orthonormal(frame, n, what):
    F = _finite(frame, what)
    if F.ndim != 2 or F.shape[1] != n:
        raise ValueError(f"{what} must have shape (k, {n}), got {F.shape}")
    gram = F @ F.T
    if not np.allclose(gram, np.eye(F.shape[0]), rtol=0.0, atol=_ORTHO_TOL):
        raise ValueError(f"{what} rows must be orthonormal")
    return F


def _complement(rows: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the row span."""
    rows = np.atleast_2d(rows)
    _, _, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[rows.shape[0] :]


def _foot(a: np.ndarray, F: np.ndarray, what: str) -> np.ndarray:
    """a - F^T(F a): the point nearest the origin on the flat through a along
    the orthonormal rows of F. From max |a| = 2^960 on, the projection is
    taken on a / 2^64, an exact scaling, so that none of its sums overflows;
    ValueError, naming the point, when the foot point itself lies beyond the
    float range."""
    if max(map(abs, a.tolist())) < 2.0**960:
        return a - F.T @ (F @ a)
    with np.errstate(over="ignore", invalid="ignore"):
        foot = a - F.T @ (F @ (a / 2.0**64)) * 2.0**64
    if not np.all(np.isfinite(foot)):
        raise ValueError(f"{what} {a.tolist()} has a foot point beyond the float range")
    return foot


def line(point, direction) -> VarietySpec:
    """The line through point with unit direction u. point may be any point of
    the line; the line keeps its foot point a - (a.u)u, the point nearest the
    origin, so that no consumer depends on where the line was anchored."""
    a = _finite(point, "line point", 1)
    n = a.shape[0]
    if n < 2:
        raise ValueError("a line needs ambient dimension >= 2")
    u = _unit(direction, "line direction")
    if u.shape != (n,):
        raise ValueError("line point/direction dimension mismatch")
    foot = _foot(a, u[None, :], "line point")
    return VarietySpec(n=n, k=1, sampler=LineSampler(foot, u, _complement(u[None, :], n)))


def circle(center, radius, frame=None) -> VarietySpec:
    c = _finite(center, "circle center", 1)
    n = c.shape[0]
    if n < 2:
        raise ValueError("a circle needs ambient dimension >= 2")
    radius = float(_finite(radius, "circle radius", 0))
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
    sampler = CircleSampler(c, radius, F, normals)
    return VarietySpec(n=n, k=1, sampler=sampler)


def kplane(point, frame) -> VarietySpec:
    """The affine k-plane through point spanned by the orthonormal rows of
    frame. point may be any point of the plane; the plane keeps its foot point
    a - F^T(F a), which for an empty frame (a single-point, k = 0 variety) is
    a bit for bit. A 1-plane is a line, built by line()."""
    a = _finite(point, "k-plane point", 1)
    n = a.shape[0]
    frame = _finite(frame, "k-plane frame")
    if frame.size == 0:
        frame = frame.reshape(0, n)
    F = _orthonormal(frame, n, "k-plane frame")
    k = F.shape[0]
    if k >= n:
        raise ValueError(f"need variety dimension k < n, got k={k}, n={n}")
    if k == 1:
        return line(a, F[0])
    normals = _complement(F, n)
    return VarietySpec(n=n, k=k, sampler=PlaneSampler(_foot(a, F, "k-plane point"), F, normals))


def build(kind: str, params: dict) -> VarietySpec:
    """Dispatch constructor used by instance files."""
    if kind == "line":
        return line(params["point"], params["dir"])
    if kind == "circle":
        return circle(params["center"], params["radius"], params.get("frame"))
    if kind == "kplane":
        return kplane(params["point"], params["frame"])
    raise ValueError(f"unsupported variety kind {kind!r}")


def _circle_arc(sampler: CircleSampler, R):
    # |x(theta)|^2 = A + Bm cos(theta - phi) <= R^2 on a single arc
    c, r, (u, v) = sampler.center, sampler.radius, sampler.frame
    if math.hypot(*c) - r > R:
        return None  # every point is at least |c| - r from the origin
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


def _span(spec: VarietySpec, R: float):
    """The parameters of the variety's part inside B_R: an interval (lo, hi)
    of a circle's angle, or, for a line or k-plane, the radius of the k-ball
    around its foot point in which it meets B_R; None when the variety misses
    B_R. A flat whose foot point lies at distance d < R from the origin meets
    B_R in the ball of radius sqrt(R^2 - d^2), taken as sqrt((R - d)(R + d)):
    d comes from math.hypot, and nothing is squared that could overflow."""
    s = spec.sampler
    if isinstance(s, CircleSampler):
        return _circle_arc(s, R)
    d = math.hypot(*s.point)
    return None if d >= R else math.sqrt((R - d) * (R + d))


def _span_measure(spec: VarietySpec, span) -> float:
    s = spec.sampler
    if isinstance(s, LineSampler):
        return 2.0 * span
    if isinstance(s, CircleSampler):
        return s.radius * (span[1] - span[0])
    return _ball_volume(spec.k) * span**spec.k


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _in_ball(g, u, radius):
    """Points uniform in the radius-ball of R^d from draws g ~ normal (..., d)
    and u ~ uniform (..., 1)."""
    g = g / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), 1e-300)
    return g * (radius * u ** (1.0 / g.shape[-1]))


def _stratified(group, count):
    """(rows, samplers, parameters) of a group of curves whose entries
    (row, sampler, lo, h, u) give the parameters lo + (i + u_i) h, i < count."""
    rows, samplers, lo, h, u = zip(*group)
    t = np.array(lo)[:, None] + (np.arange(count) + np.array(u)) * np.array(h)[:, None]
    return list(rows), samplers, t


def _base_points(specs, R, count, rngs):
    """Points on each variety inside B_R, each drawn from its own rng.

    Returns (live, measure, base, radial): live lists the varieties that
    meet B_R, measure the k-volume of each inside B_R, base (len(live), count, n)
    their points, and radial maps each row of base on a circle to the unit
    radial direction at its points. Each variety's span is found once.
    Lines and circles draw one stratified parameter per point over their
    interval or arc, k-planes a point of their k-ball about the foot point;
    the arithmetic on the lines' and the circles' draws runs on the whole
    stack, one coordinate at a time so that numpy's inner loops run along
    the points.
    """
    if len({g.n for g in specs}) > 1:
        raise ValueError("varieties must share the ambient dimension")
    live, measure, lines, arcs, planes = [], [], [], [], {}
    for i, (spec, rng) in enumerate(zip(specs, rngs)):
        span = _span(spec, R)
        if span is None:
            continue
        s = spec.sampler
        if isinstance(s, PlaneSampler):
            z = np.zeros((count, 0))
            if spec.k > 0:
                g, u = rng.normal(size=(count, spec.k)), rng.uniform(size=(count, 1))
                z = _in_ball(g, u, span)
            planes[len(live)] = s.point[None, :] + z @ s.frame
        elif isinstance(s, LineSampler):
            lines.append((len(live), s, -span, 2.0 * span / count, rng.uniform(size=count)))
        else:
            lo, hi = span
            arcs.append((len(live), s, lo, (hi - lo) / count, rng.uniform(size=count)))
        live.append(i)
        measure.append(_span_measure(spec, span))
    base = np.empty((len(live), count, specs[0].n))
    for row, pts in planes.items():
        base[row] = pts
    if lines:
        rows, ss, t = _stratified(lines, count)
        a = np.array([s.point for s in ss])
        u = np.array([s.direction for s in ss])
        for k in range(base.shape[2]):
            base[rows, :, k] = a[:, k, None] + t * u[:, k, None]
    radial = {}
    if arcs:
        rows, ss, theta = _stratified(arcs, count)
        cos, sin = np.cos(theta), np.sin(theta)
        r = np.array([s.radius for s in ss])[:, None]
        rcos, rsin = r * cos, r * sin
        c = np.array([s.center for s in ss])
        u = np.array([s.frame[0] for s in ss])
        v = np.array([s.frame[1] for s in ss])
        for k in range(base.shape[2]):
            base[rows, :, k] = c[:, k, None] + rcos * u[:, k, None] + rsin * v[:, k, None]
        out = np.empty((len(rows), count, base.shape[2]))
        for k in range(base.shape[2]):
            out[:, :, k] = cos * u[:, k, None] + sin * v[:, k, None]
        radial = dict(zip(rows, out))
    return live, measure, base, radial


def sample_in_ball(spec: VarietySpec, R: float, count: int, seed) -> np.ndarray:
    """Deterministic points on the variety inside B_R; empty when they miss it."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    live, _, base, _ = _base_points([spec], R, count, [np.random.default_rng(seed)])
    return base[0] if live else np.zeros((0, spec.n))


def tube_sample_many(
    specs: list[VarietySpec], delta: float, R: float, count: int, seeds
) -> list[WeightedCloud]:
    """tube_sample of every variety, variety i on seeds[i], in one pass.

    Each variety draws from its own stream in tube_sample's order (base
    parameters, then perpendicular jitter), so each cloud equals its
    one-variety call bit for bit. The geometry runs on the whole stack: base
    points, perpendicular frames, jitter (one batch per perpendicular
    dimension) and the clip to B_R. The clouds' points are consecutive
    slices of one array.
    """
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if len(seeds) != len(specs):
        raise ValueError(f"need one seed per variety, got {len(seeds)} for {len(specs)}")
    if not specs:
        return []
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live, measure, pts, radial = _base_points(specs, R + delta, count, rngs)
    n = pts.shape[2]
    d_perp = [specs[i].n - specs[i].k for i in live]
    for d in sorted(set(d_perp)):
        rows = [row for row, dr in enumerate(d_perp) if dr == d]
        # orthonormal perpendicular frame at each point: a circle's radial
        # direction, then the normals of the variety's span
        frames = np.empty((len(rows), count, d, n))
        for k, row in enumerate(rows):
            normals = specs[live[row]].sampler.normals
            frames[k, :, d - len(normals) :] = normals
            if row in radial:
                frames[k, :, 0] = radial.pop(row)  # freed once copied
        g = np.stack([rngs[live[row]].normal(size=(count, d)) for row in rows])
        u = np.stack([rngs[live[row]].uniform(size=(count, 1)) for row in rows])
        z = _in_ball(g, u, delta).reshape(-1, d)
        offset = np.einsum("mp,mpn->mn", z, frames.reshape(-1, d, n))
        pts[rows] += offset.reshape(len(rows), count, n)
    # |x| summed as np.linalg.norm sums it, a coordinate at a time, so that
    # numpy's inner loops run along the points
    sq = pts[:, :, 0] * pts[:, :, 0]
    for k in range(1, n):
        sq += pts[:, :, k] * pts[:, :, k]
    keep = np.sqrt(sq) <= R
    sizes = keep.sum(axis=1)
    kept, ends = pts[keep], np.cumsum(sizes)
    clouds = [WeightedCloud(np.zeros((0, n)), 0.0) for _ in specs]
    for row, i in enumerate(live):
        weight = measure[row] * _ball_volume(d_perp[row]) * delta ** d_perp[row] / count
        clouds[i] = WeightedCloud(kept[ends[row] - sizes[row] : ends[row]], weight)
    return clouds


def tube_sample(spec: VarietySpec, delta: float, R: float, count: int, seed) -> WeightedCloud:
    """Monte Carlo fill of the delta-tube around the variety, clipped to B_R.

    Base points are sampled on the variety inside B_(R+delta) and jittered
    uniformly in the perpendicular delta-ball, which fills the tube uniformly
    (exactly for flats, up to O(delta * curvature) density bias for circles).
    Each kept point represents weight = (k-volume of base region) *
    (perpendicular ball volume) / count, so total weight estimates
    vol(N_delta gamma intersect B_R). The one-variety call of tube_sample_many.
    """
    return tube_sample_many([spec], delta, R, count, [seed])[0]
