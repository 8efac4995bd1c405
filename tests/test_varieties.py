import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import distance_to, region_measure
from polypart.varieties import (
    LineSampler,
    build,
    circle,
    kplane,
    line,
    sample_in_ball,
    tube_sample,
    tube_sample_many,
)


def test_build_line_r2():
    spec = line((0.0, 0.0), (1.0, 0.0))
    assert spec.k == 1 and spec.n == 2
    assert distance_to(spec, [(5.0, 0.0), (0.0, 1.0)]) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_build_circle_r2():
    spec = circle((0.0, 0.0), 1.0)
    assert spec.k == 1
    assert distance_to(spec, [(1.0, 0.0), (0.0, 0.0)]) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_build_circle_r3_sphere_plus_plane():
    frame = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    spec = circle((0.0, 0.0, 1.0), 2.0, frame)
    assert spec.k == 1 and spec.n == 3
    pts = sample_in_ball(spec, 5.0, 50, seed=0)
    assert distance_to(spec, pts).max() < 1e-9


def test_build_plane_z0():
    spec = kplane((0.0, 0.0, 0.0), np.eye(3)[:2])
    assert spec.k == 2
    assert distance_to(spec, (0.0, 0.0, 2.0)) == pytest.approx(2.0)


def test_build_errors():
    with pytest.raises(ValueError):
        line((0.0, 0.0), (2.0, 0.0))  # not unit
    with pytest.raises(ValueError):
        circle((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        kplane((0.0, 0.0), np.eye(2))  # k >= n
    with pytest.raises(ValueError):
        kplane((0.0, 0.0, 0.0), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="orthonormal"):
        # the 1e-9 tolerance holds on the Gram diagonal too, as line()'s does
        kplane((0.0, 0.0, 0.0), [[1.0 + 1e-6, 0.0, 0.0]])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: line((math.nan, 0.0), (1.0, 0.0)), "line point must be finite"),
        (lambda: line((0.0, 0.0), (True, 0)), "line direction must hold real numbers"),
        (lambda: line(5.0, (1.0, 0.0)), "line point must be a vector"),
        (lambda: circle((0.0, 0.0), "x"), "circle radius must hold real numbers"),
        (lambda: circle((0.0, 0.0), True), "circle radius must hold real numbers"),
        (lambda: circle((0.0, 0.0), math.inf), "circle radius must be finite"),
        (lambda: circle((0.0, 0.0), 1 + 0j), "circle radius must hold real numbers"),
        (lambda: kplane((0.0, math.inf), np.zeros((0, 2))), "k-plane point must be finite"),
        (lambda: kplane((0.0, 0.0, 0.0), [[1, 0, 0], [0, 1]]), "k-plane frame must hold real"),
    ],
)
def test_build_rejects_non_finite_and_non_real_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_point_variety_k0():
    # an empty frame gives a single-point variety: k = 0
    spec = kplane((0.3, -0.4), np.zeros((0, 2)))
    assert spec.k == 0
    pts = sample_in_ball(spec, 1.0, 5, seed=0)
    assert pts.shape == (5, 2)
    assert np.allclose(pts, [0.3, -0.4])
    assert distance_to(spec, pts).max() < 1e-12
    # outside the ball: nothing to sample
    assert sample_in_ball(spec, 0.25, 5, seed=0).shape == (0, 2)
    cloud = tube_sample(spec, 0.1, 1.0, 4000, seed=1)
    total = cloud.weight * len(cloud.points)
    assert total == pytest.approx(math.pi * 0.1**2, rel=0.02)  # the delta-ball


def test_flats_keep_their_foot_points():
    # the point given may be any point of the flat; a 0-plane keeps it bit
    # for bit, and a far anchor neither overflows nor loses the span
    a = np.array([0.3, -0.4, 1e-310])
    assert kplane(a, np.zeros((0, 3))).sampler.point.tobytes() == a.tobytes()
    far = kplane((1e8, -3e7, 0.3), np.eye(3)[:2])
    assert far.sampler.point.tolist() == [0.0, 0.0, 0.3]
    assert region_measure(far, 4.0) == pytest.approx(math.pi * (16.0 - 0.09), rel=1e-12)
    huge = kplane((1e160, 0.0, 0.3), np.eye(3)[:2])
    assert distance_to(huge, sample_in_ball(huge, 4.0, 20, seed=0)).max() < 1e-12
    assert line((5.0, 1.0), (1.0, 0.0)).sampler.point.tolist() == [0.0, 1.0]
    # a 1-plane is the line along its frame row
    one = kplane((0.1, 0.4, -0.2), [[0.0, 0.6, 0.8]]).sampler
    want = line((0.1, 0.4, -0.2), (0.0, 0.6, 0.8)).sampler
    assert isinstance(one, LineSampler)
    assert np.array_equal(one.point, want.point) and np.array_equal(one.direction, want.direction)


@settings(max_examples=200)
@given(
    st.floats(0.0, 2 * math.pi),
    st.floats(-math.pi / 2, math.pi / 2),
    st.lists(st.floats(-1.79, 1.79), min_size=3, max_size=3),
    st.integers(0, 308),
)
@example(math.atan2(0.8, 0.6), 0.0, [1.5, 1.5, 0.0], 308)  # a.u overflows
@example(-math.pi / 8, 0.0, [1.7, 1.7, 0.0], 308)  # the foot point overflows
def test_flats_store_the_exact_projection_up_to_1e308(theta, phi, xyz, e):
    # lines and 2-planes in R^3 through points with coordinates up to 1.79e308:
    # the stored point is the exact projection of the given point a, within
    # 2^-48 max |a|, or ValueError when that projection is beyond the float
    # range; nothing overflows on the way
    a = np.array(xyz) * 10.0**e
    u = (math.cos(theta) * math.cos(phi), math.sin(theta) * math.cos(phi), math.sin(phi))
    rows = [(math.cos(theta), math.sin(theta), 0.0), (0.0, 0.0, 1.0)]  # exactly orthogonal
    for build_flat, span in (((lambda: line(a, u)), [u]), ((lambda: kplane(a, rows)), rows)):
        foot = [Fraction(c) for c in a]
        for f in span:
            coef = sum(Fraction(c) * Fraction(d) for c, d in zip(a, f)) / sum(
                Fraction(d) ** 2 for d in f
            )
            foot = [c - coef * Fraction(d) for c, d in zip(foot, f)]
        top = max(abs(w) for w in foot) / Fraction(sys.float_info.max)
        if top > 1 + Fraction(2) ** -40:
            with pytest.raises(ValueError, match="foot point beyond the float range"):
                build_flat()
        elif top < 1 - Fraction(2) ** -40:
            got = build_flat().sampler.point
            err = max(abs(Fraction(g) - w) for g, w in zip(got, foot))
            assert err <= Fraction(2) ** -48 * max(1, max(Fraction(abs(c)) for c in a))


def test_build_dispatch():
    spec = build("line", {"point": [0.0, 1.0], "dir": [1.0, 0.0]})
    assert isinstance(spec.sampler, LineSampler)
    # only kinds with a sampler are built: there is no implicit-only variety
    for kind in ("implicit", "torus"):
        with pytest.raises(ValueError, match=f"unsupported variety kind '{kind}'"):
            build(kind, {})


def test_sample_line_in_ball():
    spec = line((0.0, 0.0), (1.0, 0.0))
    pts = sample_in_ball(spec, 1.0, 3, seed=1)
    assert pts.shape == (3, 2)
    assert np.all(np.abs(pts[:, 0]) <= 1.0)
    assert np.all(pts[:, 1] == 0.0)


def test_sample_line_missing_ball():
    spec = line((0.0, 10.0), (1.0, 0.0))
    pts = sample_in_ball(spec, 1.0, 10, seed=2)
    assert pts.shape == (0, 2)


def test_sample_circle_residuals():
    spec = circle((0.2, -0.1), 0.8)
    pts = sample_in_ball(spec, 1.0, 100, seed=3)
    assert len(pts) == 100
    assert distance_to(spec, pts).max() < 1e-9
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)


def test_sample_circle_partial_arc():
    # circle centered outside the ball: only an arc is inside
    spec = circle((1.0, 0.0), 1.0)
    pts = sample_in_ball(spec, 1.0, 200, seed=4)
    assert len(pts) == 200
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9)
    assert distance_to(spec, pts).max() < 1e-9


def test_sample_plane_in_ball():
    spec = kplane((0.0, 0.0, 0.5), np.eye(3)[:2])
    pts = sample_in_ball(spec, 1.0, 300, seed=5)
    assert distance_to(spec, pts).max() < 1e-9
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)
    far = kplane((0.0, 0.0, 2.0), np.eye(3)[:2])
    assert sample_in_ball(far, 1.0, 10, seed=5).shape == (0, 3)


def test_sample_determinism():
    spec = circle((0.2, -0.1), 0.8)
    a = sample_in_ball(spec, 1.0, 64, seed=7)
    b = sample_in_ball(spec, 1.0, 64, seed=7)
    assert np.array_equal(a, b)
    c = sample_in_ball(spec, 1.0, 64, seed=8)
    assert not np.array_equal(a, c)


def band_area(delta, R):
    # area of {|x| <= R, dist to x-axis <= delta}, closed form
    a = delta / R
    return 2.0 * R * R * (a * math.sqrt(1.0 - a * a) + math.asin(a))


def test_tube_total_weight_matches_band_area():
    spec = line((0.0, 0.0), (1.0, 0.0))
    cloud = tube_sample(spec, 0.1, 1.0, 10_000, seed=9)
    total = cloud.weight * len(cloud.points)
    exact = band_area(0.1, 1.0)
    assert total == pytest.approx(exact, rel=0.03)
    assert abs(total - 0.4) <= 0.1 * 0.4  # within 10% of 2*(2*0.1)


def test_tube_points_within_delta():
    for delta in (0.3, 0.05, 1e-4):
        spec = line((0.1, -0.2), (0.6, 0.8))
        cloud = tube_sample(spec, delta, 1.0, 500, seed=10)
        assert np.all(distance_to(spec, cloud.points) <= delta + 1e-12)
        assert np.all(np.linalg.norm(cloud.points, axis=1) <= 1.0 + 1e-12)


def test_tube_empty_region():
    spec = line((0.0, 10.0), (1.0, 0.0))
    cloud = tube_sample(spec, 0.1, 1.0, 100, seed=11)
    assert cloud.points.shape == (0, 2)
    assert cloud.weight == 0.0


def test_tube_circle_weight():
    # full annulus: area = 2 pi r * 2 delta exactly
    spec = circle((0.0, 0.0), 0.5)
    delta = 0.05
    cloud = tube_sample(spec, delta, 2.0, 20_000, seed=12)
    total = cloud.weight * len(cloud.points)
    exact = 2.0 * math.pi * 0.5 * 2.0 * delta
    assert total == pytest.approx(exact, rel=0.05)
    assert np.all(distance_to(spec, cloud.points) <= delta + 1e-12)


def test_tube_determinism():
    spec = circle((0.2, 0.1), 0.7)
    a = tube_sample(spec, 0.02, 1.5, 256, seed=13)
    b = tube_sample(spec, 0.02, 1.5, 256, seed=13)
    assert np.array_equal(a.points, b.points) and a.weight == b.weight


def test_tube_sample_reuses_the_normals_of_the_variety(monkeypatch):
    import polypart.varieties as varieties

    specs = [
        line((0.1, -0.2, 0.3), (0.6, 0.8, 0.0)),
        circle((0.2, 0.1, 0.0), 0.7, np.eye(3)[:2]),
        kplane((0.0, 0.0, 0.1), np.eye(3)[:2]),
    ]
    for spec in specs:
        s = spec.sampler
        span = s.direction[None, :] if isinstance(s, LineSampler) else s.frame
        assert np.array_equal(s.normals, varieties._complement(span, 3))
    before = [tube_sample(spec, 0.05, 1.5, 64, seed=3) for spec in specs]

    def no_svd(*args):
        raise AssertionError("tube_sample recomputed a complement")

    monkeypatch.setattr(varieties, "_complement", no_svd)
    for spec, cloud in zip(specs, before):
        assert np.array_equal(tube_sample(spec, 0.05, 1.5, 64, seed=3).points, cloud.points)


def test_region_measure_closed_forms():
    assert region_measure(line((0.0, 0.0), (1.0, 0.0)), 2.0) == pytest.approx(4.0)
    assert region_measure(circle((0.0, 0.0), 0.5), 1.0) == pytest.approx(math.pi)
    disk = kplane((0.0, 0.0, 0.0), np.eye(3)[:2])
    assert region_measure(disk, 1.0) == pytest.approx(math.pi)
    assert region_measure(line((0.0, 5.0), (1.0, 0.0)), 1.0) == 0.0


# (delta, R, count) and varieties of two families whose tube clouds were
# pinned from the one-variety sampler that the batched pass replaced. In R^2:
# a line, a circle on a partial arc, one wholly inside B_R, one that misses
# it and a line that misses it. In R^3: two circles, 0-planes inside and
# outside B_(R+delta), a 1-plane, a 2-plane and a line, so the perpendicular
# dimensions 1, 2 and 3 all occur.
TUBE_FAMILIES = {
    "r2": (
        (0.1, 1.0, 64),
        [
            line((0.1, -0.2), (0.6, 0.8)),
            circle((0.7, 0.3), 0.6),
            circle((0.1, -0.1), 0.4),
            circle((3.0, 0.0), 0.5),
            line((0.0, 5.0), (1.0, 0.0)),
        ],
    ),
    "r3": (
        (0.05, 1.5, 48),
        [
            circle((0.2, 0.1, 0.0), 0.7, np.eye(3)[:2]),
            circle((0.9, -0.3, 0.4), 0.8, [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
            kplane((0.3, -0.2, 0.1), np.zeros((0, 3))),
            kplane((1.2, 0.9, -0.4), np.zeros((0, 3))),
            kplane((0.1, 0.4, -0.2), [[0.0, 0.6, 0.8]]),
            kplane((0.0, 0.0, 0.1), np.eye(3)[:2]),
            line((0.1, -0.2, 0.3), (0.6, 0.8, 0.0)),
        ],
    ),
}
# per variety i on seed (17, i): kept points, sha256 prefix of their bytes,
# weight as float.hex. The r2 line, the r3 1-plane (a line since 1-planes are
# built as lines) and the r3 line were given off their foot points: their
# digests were re-recorded when flats came to keep the foot point, with the
# same kept counts and weights.
PINNED_TUBES = {
    "r2": [
        (58, "fad25b33525a187b", "0x1.bb0cd605d7512p-8"),
        (54, "5c19eca8e23a6267", "0x1.cbbf02d6e785cp-8"),
        (64, "553a7e27c69f31c9", "0x1.015bf92172719p-7"),
        (0, "e3b0c44298fc1c14", "0x0.0p+0"),
        (0, "e3b0c44298fc1c14", "0x0.0p+0"),
    ],
    "r3": [
        (48, "ffc62d358cc84d3e", "0x1.794ef312fc57bp-11"),
        (45, "24d2ce6f8340dd3d", "0x1.6abc651029a51p-11"),
        (48, "3acf15f92ab8793a", "0x1.6e05a695f8191p-17"),
        (0, "e3b0c44298fc1c14", "0x0.0p+0"),
        (46, "7681031e4ad7d151", "0x1.fcd70df948241p-12"),
        (45, "35d86afb85b7bfc0", "0x1.008e15f3be161p-6"),
        (46, "22bd398534ba80ae", "0x1.02a492d5cf2ebp-11"),
    ],
}


def _pin(cloud):
    digest = hashlib.sha256(cloud.points.tobytes()).hexdigest()[:16]
    return len(cloud.points), digest, float(cloud.weight).hex()


@pytest.mark.parametrize("family", sorted(TUBE_FAMILIES))
def test_tube_clouds_pinned_bits(family):
    (delta, R, count), specs = TUBE_FAMILIES[family]
    got = [_pin(tube_sample(g, delta, R, count, (17, i))) for i, g in enumerate(specs)]
    assert got == PINNED_TUBES[family]


@pytest.mark.parametrize("family", sorted(TUBE_FAMILIES))
def test_batched_tube_pass_equals_one_variety_calls(family):
    (delta, R, count), specs = TUBE_FAMILIES[family]
    seeds = [(17, i) for i in range(len(specs))]
    batched = tube_sample_many(specs, delta, R, count, seeds)
    assert len(batched) == len(specs)
    for g, seed, cloud in zip(specs, seeds, batched):
        alone = tube_sample(g, delta, R, count, seed)
        assert cloud.points.shape == alone.points.shape
        assert np.array_equal(cloud.points, alone.points)
        assert cloud.weight == alone.weight
    # reversed order: each variety keeps its own stream
    back = tube_sample_many(specs[::-1], delta, R, count, seeds[::-1])
    for cloud, want in zip(back, batched[::-1]):
        assert np.array_equal(cloud.points, want.points) and cloud.weight == want.weight
    assert tube_sample_many([], delta, R, count, []) == []
    with pytest.raises(ValueError, match="one seed per variety"):
        tube_sample_many(specs, delta, R, count, seeds[1:])


@pytest.mark.parametrize("count", [0, -3])
def test_tube_sampling_rejects_empty_count(count):
    spec = circle((0.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="count"):
        tube_sample(spec, 0.1, 1.0, count, seed=0)
    with pytest.raises(ValueError, match="count"):
        tube_sample_many([spec, spec], 0.1, 1.0, count, [0, 1])
