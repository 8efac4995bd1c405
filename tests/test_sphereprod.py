import numpy as np
import pytest

from oracles import eval_poly, xs_dim
from polypart.polyalg import degree_schedule
from polypart.solver import _step_block
from polypart.sphereprod import (
    XsPoint,
    block_poly,
    block_size,
    flip,
    random_point,
    retract,
    to_polys,
)


def test_block_sizes_and_dim():
    assert [block_size(j) for j in (1, 2, 3, 4)] == [2, 3, 5, 9]
    for s in range(1, 6):
        assert sum(block_size(j) - 1 for j in range(1, s + 1)) == xs_dim(s)


def test_xspoint_validation():
    with pytest.raises(ValueError):
        XsPoint((np.array([1.0, 1.0]),))  # not unit
    with pytest.raises(ValueError):
        XsPoint((np.array([1.0, 0.0, 0.0]),))  # wrong length for block 1


def test_flip_involution_and_commutation():
    x = random_point(3, seed=0)
    assert np.allclose(flip(flip(x, 2), 2).blocks[1], x.blocks[1])
    a = flip(flip(x, 1), 2)
    b = flip(flip(x, 2), 1)
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba, bb)
    for b_ in flip(x, 3).blocks:
        assert abs(np.linalg.norm(b_) - 1.0) < 1e-12
    with pytest.raises(IndexError):
        flip(x, 4)


def test_random_point_norms():
    for s in (1, 3, 5):
        x = random_point(s, seed=s)
        for b in x.blocks:
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12


def test_retract_identity_on_units():
    x = random_point(4, seed=1)
    y = retract([b.copy() for b in x.blocks])
    for ba, bb in zip(x.blocks, y.blocks):
        assert np.allclose(ba, bb, atol=1e-15)
    with pytest.raises(ValueError):
        retract([np.zeros(2), np.ones(3) / np.sqrt(3)])


def test_tangent_step_zero_is_identity():
    # the solver's one-block tangent step: h = 0 renormalizes block j alone
    x = random_point(3, seed=2)
    for j in (1, 2, 3):
        y = _step_block(x, j, np.ones(block_size(j)), 0.0)
        for i, (a, b) in enumerate(zip(x.blocks, y.blocks), start=1):
            if i == j:
                assert np.allclose(a, b, rtol=0.0, atol=1e-15)
            else:
                assert np.array_equal(a, b)


def test_tangent_step_stays_on_spheres():
    rng = np.random.default_rng(3)
    x = random_point(3, seed=4)
    for j in (1, 2, 3):
        y = _step_block(x, j, rng.normal(size=block_size(j)), 0.3)
        for b in y.blocks:
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12


def test_to_polys_s1_example():
    a, b = 0.6, 0.8
    x = XsPoint((np.array([a, b]),))
    (p,) = to_polys(x, 2)
    # first two graded-lex monomials are 1 and x
    assert eval_poly(p, (0.0, 0.0)) == pytest.approx(a)
    assert eval_poly(p, (1.0, 0.0)) == pytest.approx(a + b)
    assert eval_poly(p, (0.0, 5.0)) == pytest.approx(a)


def test_to_polys_unit_norm_and_degrees():
    x = random_point(4, seed=5)
    polys = to_polys(x, 2)
    sched = degree_schedule(2, 4)
    for p, Dj in zip(polys, sched):
        assert np.linalg.norm(p.coeffs) == pytest.approx(1.0)
        assert p.basis.D == Dj


def poly_product_degree(polys):
    # independent degree arithmetic oracle: multiply exponent dicts
    terms = {(0,) * polys[0].n: 1.0}
    for p in polys:
        new = {}
        for e1, c1 in terms.items():
            for e2, c2 in zip(p.basis.monomials, p.coeffs):
                if c2 == 0.0:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                new[key] = new.get(key, 0.0) + c1 * c2
        terms = {e: c for e, c in new.items() if abs(c) > 1e-12}
    return max((sum(e) for e in terms), default=0)


def test_product_degree_at_most_schedule_sum():
    for seed in range(5):
        x = random_point(3, seed=seed)
        polys = to_polys(x, 2)
        D = sum(degree_schedule(2, 3))
        assert poly_product_degree(polys) <= D


def test_flip_embedding_equivariance():
    x = random_point(4, seed=6)
    polys = to_polys(x, 2)
    for j in range(1, 5):
        flipped = to_polys(flip(x, j), 2)
        for jj, (p, q) in enumerate(zip(polys, flipped), start=1):
            if jj == j:
                assert np.array_equal(q.coeffs, -p.coeffs)
            else:
                assert np.array_equal(q.coeffs, p.coeffs)


def test_block_poly_matches_to_polys():
    for n in (2, 3):
        x = random_point(5, seed=n)
        for j, p in enumerate(to_polys(x, n), start=1):
            q = block_poly(x, j, n)
            assert q.basis == p.basis and np.array_equal(q.coeffs, p.coeffs)
