import hashlib
import math

import numpy as np
import pytest

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
# weight as float.hex
PINNED_TUBES = {
    "r2": [
        (58, "130852eba09a6d16", "0x1.bb0cd605d7512p-8"),
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
        (46, "fd98c406cb10366c", "0x1.fcd70df948241p-12"),
        (45, "35d86afb85b7bfc0", "0x1.008e15f3be161p-6"),
        (46, "b780a06ca3fd87d8", "0x1.02a492d5cf2ebp-11"),
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
