import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypart import equivariant as eq
from polypart.equivariant import (
    MAX_ZERO_S,
    ContinuationError,
    EquivariantMap,
    check_equivariance,
    continuation_zero,
    flip_orbit,
    g_zeros,
    j_of_v,
    jacobian_g,
    model_g,
    model_jac,
    model_map,
    random_equivariant,
    slot_of_v,
)
from polypart.sphereprod import XsPoint, block_size, flip, random_point, retract


def test_coordframe_bijection():
    # the x_v naming hits every (block j, slot >= 1) pair exactly once
    for s in range(1, 6):
        slots = [slot_of_v(v) for v in range(1, 2**s)]
        want = [(j, i) for j in range(1, s + 1) for i in range(1, block_size(j))]
        assert sorted(slots) == want
    assert j_of_v(0b1) == 1
    assert j_of_v(0b110) == 3
    assert slot_of_v(0b1) == (1, 1)
    assert slot_of_v(0b11) == (2, 2)


def test_model_g_s1():
    x = XsPoint((np.array([0.0, 1.0]),))  # (t_1, x_(1)) = (0, 1)
    assert model_g(x) == pytest.approx([1.0])


def test_model_g_s2_formula():
    # g_(1,1) = x_(1,1) * t_1 ; block 2 holds (t_2, x_(0,1), x_(1,1))
    t1 = 1.0
    x = XsPoint(
        (
            np.array([t1, 0.0]),
            np.array([np.sqrt(1.0 - 0.25), 0.0, 0.5]),
        )
    )
    vals = model_g(x)
    assert vals[2] == pytest.approx(0.5)  # v = (1,1) -> index 3 - 1


def test_model_g_vanishes_without_xv():
    for s in (1, 2, 3):
        for z in g_zeros(s):
            assert np.max(np.abs(model_g(z))) == 0.0


def test_g_zeros_counts():
    assert len(g_zeros(1)) == 2
    assert len(g_zeros(3)) == 8
    for z in g_zeros(1):
        assert abs(z.blocks[0][0]) == 1.0 and z.blocks[0][1] == 0.0


def test_jacobian_examples():
    (z_plus, _) = g_zeros(1)
    J = jacobian_g(z_plus)
    assert J.shape == (1, 1) and J[0, 0] == 1.0
    # s = 2, zero with t_1 = -1: diag(1, 1, -1) in v order (1,0), (0,1), (1,1)
    z = XsPoint((np.array([-1.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    J = jacobian_g(z)
    assert np.array_equal(J, np.diag([1.0, 1.0, -1.0]))
    for s in (1, 2, 3):
        for z in g_zeros(s):
            d = np.diag(jacobian_g(z))
            assert np.all(np.isin(d, (-1.0, 1.0)))


def test_jacobian_rejects_non_zero_points():
    x = random_point(2, seed=0)
    with pytest.raises(ValueError):
        jacobian_g(x)


def test_jacobian_matches_finite_differences():
    h = 1e-6
    for s in (1, 2, 3):
        for z in g_zeros(s):
            J = jacobian_g(z)
            for col, v in enumerate(range(1, 2**s)):
                j, slot = slot_of_v(v)
                bp = [b.copy() for b in z.blocks]
                bm = [b.copy() for b in z.blocks]
                bp[j - 1][slot] += h
                bm[j - 1][slot] -= h
                # the slot direction is tangent at a model zero, so the
                # retracted points still read column col of J
                fd = (model_g(retract(bp)) - model_g(retract(bm))) / (2 * h)
                assert np.allclose(J[:, col], fd, atol=1e-6)


def test_check_equivariance_model():
    for s in (1, 2, 3):
        assert check_equivariance(model_map(s), trials=60, seed=1) < 1e-14


def test_check_equivariance_broken_map():
    def broken(x):
        out = model_g(x)
        out[0] = 1.0  # constants are not odd
        return out

    f = EquivariantMap(2, broken, model_jac)
    assert check_equivariance(f, trials=200, seed=2) >= 1.0


def test_random_equivariant_lam_zero_is_model():
    f = random_equivariant(3, 0.0, seed=3)
    for seed in range(5):
        x = random_point(3, seed=seed)
        assert np.allclose(f(x), model_g(x), atol=0.0)


def test_random_equivariant_is_equivariant():
    for seed in range(30):
        s = 1 + seed % 3
        f = random_equivariant(s, 0.4, seed=seed)
        assert check_equivariance(f, trials=20, seed=seed) < 1e-10


def test_random_equivariant_finite():
    f = random_equivariant(2, 0.3, seed=4)
    rng = np.random.default_rng(5)
    vals = [np.abs(f(random_point(2, rng.integers(2**63)))).max() for _ in range(500)]
    assert np.all(np.isfinite(vals))


def test_continuation_lam_zero_returns_model_zero():
    f = random_equivariant(2, 0.0, seed=7)
    res = continuation_zero(f, 2)
    assert res.residual == 0.0
    zero_blocks = g_zeros(2)[res.start_index].blocks
    for a, b in zip(res.point.blocks, zero_blocks):
        assert np.array_equal(a, b)


def test_continuation_perturbed_s2():
    for seed in range(8):
        f = random_equivariant(2, 0.3, seed=seed)
        res = continuation_zero(f, 2)
        assert res.residual < 1e-8
        assert len(res.orbit) == 4
        assert max(res.orbit_residuals) < 1e-8


def test_continuation_failure_reports():
    def hopeless(x):
        return model_g(x) + 5.0  # no zero anywhere near; breaks equivariance too

    f = EquivariantMap(1, hopeless, model_jac)
    with pytest.raises(ContinuationError) as err:
        continuation_zero(f, 1)
    assert len(err.value.residuals) == 2


def test_continuation_map_calls_at_lam_zero():
    # from an exact model zero every t-step converges at its first residual:
    # 32 steps, the final residual and the 4 orbit residuals call the map
    f = random_equivariant(2, 0.0, seed=7)
    calls, fn = [], f.fn
    f.fn = lambda x: calls.append(x) or fn(x)
    continuation_zero(f, 2)
    assert len(calls) == 37


def test_zero_orbit_closure():
    f = random_equivariant(2, 0.25, seed=9)
    res = continuation_zero(f, 2)
    for p in flip_orbit(res.point):
        assert np.abs(f(p)).max() < 1e-8


def test_model_zero_structure_from_newton():
    # Newton-polished zeros of the model map keep x_v ~ 0 and |t_j| near 1
    found = 0
    for seed in range(40):
        x = random_point(2, seed=100 + seed)
        pt, res, ok = eq._newton(model_g, model_jac, x)
        if ok and res < 1e-10:
            found += 1
            for b in pt.blocks:
                assert abs(b[0]) > 0.9
                assert np.abs(b[1:]).max() < 1e-10
    assert found >= 5


# ---------------------------------------------------------------------------
# bit-for-bit oracles: the per-v and per-term loops that the array kernels
# replaced, kept here as the definition of every output bit


def _loop_lower_t(x, v):
    prod = 1.0
    for j in range(1, j_of_v(v)):
        if (v >> (j - 1)) & 1:
            prod *= x.blocks[j - 1][0]
    return prod


def _loop_model_g(x):
    out = np.empty(2**x.s - 1)
    for v in range(1, 2**x.s):
        j, slot = slot_of_v(v)
        out[v - 1] = x.blocks[j - 1][slot] * _loop_lower_t(x, v)
    return out


def _loop_random_equivariant(s, lam, seed):
    rng = np.random.default_rng(seed)
    n_terms = 3
    vectors, alphas, betas = {}, {}, {}
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

    def fn(x):
        out = _loop_model_g(x)
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

    return fn


def _near_zero(z, seed):
    # a point within 1e-10 of model zero z, so that the t_j are not exactly +-1
    rng = np.random.default_rng(seed)
    return retract([b + 1e-10 * rng.normal(size=b.shape) for b in z.blocks])


@pytest.mark.parametrize("s", range(1, 9))
def test_model_g_and_jacobian_match_loop_bits(s):
    points = [random_point(s, seed=1000 * s + k) for k in range(4)]
    zeros = g_zeros(s)[:: max(1, 2**s // 8)]
    points += [_near_zero(z, k) for k, z in enumerate(zeros)]
    for x in points:
        assert model_g(x).tobytes() == _loop_model_g(x).tobytes()
    for k, z in enumerate(zeros):
        x = _near_zero(z, k)
        want = np.zeros((2**s - 1, 2**s - 1))
        for v in range(1, 2**s):
            want[v - 1, v - 1] = _loop_lower_t(x, v)
        assert jacobian_g(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("s", range(1, 5))
def test_random_equivariant_matches_loop_bits(s):
    for seed in range(4):
        f = random_equivariant(s, 0.3, seed)
        loop = _loop_random_equivariant(s, 0.3, seed)
        for k in range(25):
            x = random_point(s, seed=100 * seed + k)
            assert f(x).tobytes() == loop(x).tobytes()


def test_random_equivariant_matches_loop_on_continuation_path():
    # tracked points sit near the model zeros, where t_j^2 rounds differently
    # under np.square than under the scalar power the loop uses
    for seed in range(2):
        f = random_equivariant(2, 0.3, seed)
        loop = _loop_random_equivariant(2, 0.3, seed)
        fast, seen = f.fn, []

        def both(x):
            out = fast(x)
            seen.append(out.tobytes() == loop(x).tobytes())
            return out

        f.fn = both
        continuation_zero(f, 2)
        assert len(seen) > 100 and all(seen)


def _result_hash(res):
    h = hashlib.sha256()
    for b in res.point.blocks:
        h.update(b.tobytes())
    h.update(np.float64(res.residual).tobytes())
    h.update(np.int64(res.start_index).tobytes())
    return h.hexdigest()


# sha256 over the result blocks, residual and start index, recorded with the
# analytic Jacobian path (random_equivariant's jac on tangent Newton steps)
PINNED_CONTINUATION_S2 = [
    "795daa934106607cc4098f7a3eedbac155f4da5c87054ceae40b28389a321372",
    "246807ea379be51b61c0e2d928deda0bb078394e313a185e5f1481f44cc6e3e1",
    "ded963240d01724c44358ce67b26393e8bbba357859062457a2fa227cad505ca",
    "a1f211b370a6a6af01274bbee80115c9b14f36ef1cecdcd64a36d966f9c21cae",
]

@pytest.mark.parametrize("seed", range(4))
def test_continuation_zero_pinned_bits(seed):
    res = continuation_zero(random_equivariant(2, 0.3, seed), 2)
    assert _result_hash(res) == PINNED_CONTINUATION_S2[seed]


def test_newton_pinned_bits():
    # from a random start far from any zero: four tangent steps, each solved
    # with the block rows below the Jacobian and followed by the retraction,
    # and the residual read at every step
    f = random_equivariant(2, 0.5, 6)
    calls = []
    pt, res, ok = eq._newton(lambda x: calls.append(x) or f(x), f.jac, random_point(2, seed=5286))
    h = hashlib.sha256()
    for b in pt.blocks:
        h.update(b.tobytes())
    h.update(np.float64(res).tobytes())
    assert ok and len(calls) == 5
    assert h.hexdigest() == "c55ec596193c89ef473f01d38529b38379640fe5ae937bcbc368259ffa9f5355"


@pytest.mark.parametrize("seed", [11, 55, 60, 78, 111, 198])
def test_continuation_finds_zeros_at_lam_one(seed):
    # maps on which per-block chart Newton lost every start; tangent steps
    # keep the track through them
    f = random_equivariant(2, 1.0, seed)
    res = continuation_zero(f, 2)
    assert res.residual < 1e-8
    assert max(res.orbit_residuals) < 1e-8


def test_continuation_zero_rejects_mismatched_s():
    with pytest.raises(ValueError, match=r"s = 3 .* s = 2"):
        continuation_zero(random_equivariant(2, 0.3, 0), 3)


def test_random_equivariant_rejects_s_below_1():
    with pytest.raises(ValueError, match="s >= 1"):
        random_equivariant(0, 0.3, 0)


def test_random_equivariant_rejects_s_above_zero_limit(monkeypatch):
    # the guard fires before any draw, so s = MAX_ZERO_S + 1 costs nothing
    def reached(*args, **kwargs):
        raise AssertionError("random_equivariant drew past the s guard")

    monkeypatch.setattr(eq.np.random, "default_rng", reached)
    with pytest.raises(ValueError, match="MAX_ZERO_S"):
        random_equivariant(MAX_ZERO_S + 1, 0.3, 0)


# ---------------------------------------------------------------------------
# analytic Jacobians: the kernels and the Newton path


class _Unchecked:
    """Blocks off the spheres, which XsPoint rejects: the maps read only
    .blocks, so ambient central differences can perturb one coordinate."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    @property
    def s(self):
        return len(self.blocks)


def _ambient_fd(fn, x, h=1e-6):
    flat = np.concatenate(x.blocks)
    cuts = np.cumsum([len(b) for b in x.blocks])[:-1]
    cols = []
    for i in range(len(flat)):
        e = np.zeros(len(flat))
        e[i] = h
        up, down = (_Unchecked(np.split(z, cuts)) for z in (flat + e, flat - e))
        cols.append((fn(up) - fn(down)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("s", range(1, 5))
def test_jacobians_match_central_differences(s):
    for seed in range(4):
        x = random_point(s, seed=50 + seed)
        for f in (random_equivariant(s, 0.4, seed), model_map(s)):
            J = f.jac(x)
            assert J.shape == (2**s - 1, 2**s - 1 + s)
            assert np.abs(J - _ambient_fd(f.fn, x)).max() < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 4),
    map_seed=st.integers(0, 2**32 - 1),
    point_seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_jacobian_flip_rule(s, map_seed, point_seed, data):
    # f(flip_j x) = S_j f(x) gives J(flip_j x) = S_j J(x) F_j: rows v with bit
    # j set and the columns of block j change sign
    j = data.draw(st.integers(1, s))
    x = random_point(s, point_seed)
    rows = np.array([(v >> (j - 1)) & 1 for v in range(1, 2**s)], dtype=bool)
    cols = np.zeros(2**s - 1 + s, dtype=bool)
    start = 2 ** (j - 1) + j - 2
    cols[start : start + block_size(j)] = True
    for f in (random_equivariant(s, 0.4, map_seed), model_map(s)):
        want = f.jac(x)
        want[rows] *= -1.0
        want[:, cols] *= -1.0
        assert np.array_equal(f.jac(flip(x, j)), want)


@pytest.mark.parametrize("s, maps", [(2, 50), (3, 10)])
def test_analytic_path_agrees_with_fd_oracle(s, maps):
    # same start, same zero to 1e-12: only the Newton Jacobian differs
    for seed in range(maps):
        f = random_equivariant(s, 0.3, seed)
        got = continuation_zero(f, s)
        want = continuation_zero(EquivariantMap(s, f.fn, lambda x: _ambient_fd(f.fn, x)), s)
        assert got.start_index == want.start_index
        for a, b in zip(got.point.blocks, want.point.blocks):
            assert np.abs(a - b).max() <= 1e-12
