import hashlib
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    eval_poly,
    from_terms,
    grad,
    line_tensor_py,
    monomial_table_py,
    restrict_to_line,
    restrict_to_line_exact,
)
from polypart import cells, polyalg
from polypart.polyalg import (
    MAX_BASIS_DIM,
    MonomialBasis,
    Polynomial,
    basis_dim,
    degree_schedule,
    eval_poly_many,
    grad_bound,
    line_restriction_tensor,
    monomial_basis,
    monomial_matrix,
    restrict_to_line_batch,
)
from polypart.solver import SolveConfig


def enumerate_dim(n, D):
    # independent oracle: count exponent tuples directly
    return sum(1 for e in itertools.product(range(D + 1), repeat=n) if sum(e) <= D)


def test_basis_dim_examples():
    assert basis_dim(2, 3) == 10
    assert basis_dim(1, 4) == 5
    assert basis_dim(3, 2) == 10


def test_basis_dim_matches_enumeration():
    for n in range(1, 5):
        for D in range(0, 9):
            assert basis_dim(n, D) == enumerate_dim(n, D)


def test_basis_dim_overflow_and_validation():
    with pytest.raises(OverflowError):
        basis_dim(80, 10**6)
    with pytest.raises(ValueError):
        basis_dim(0, 3)
    with pytest.raises(ValueError):
        basis_dim(2, -1)


def test_degree_schedule_examples():
    assert degree_schedule(2, 4) == [1, 1, 2, 3]
    assert degree_schedule(1, 3) == [1, 2, 4]
    for n in range(1, 5):
        assert degree_schedule(n, 1) == [1]


def test_degree_schedule_properties():
    for n in range(1, 4):
        for s in range(1, 11):
            sched = degree_schedule(n, s)
            assert sched == sorted(sched)
            for j, Dj in enumerate(sched, start=1):
                assert basis_dim(n, Dj) > 2 ** (j - 1)
                if Dj > 1:
                    assert basis_dim(n, Dj - 1) <= 2 ** (j - 1)


@pytest.mark.parametrize(
    "s, build",
    [
        (13, lambda: degree_schedule(2, 13)),
        (20, lambda: degree_schedule(1, 20)),
        (10**6, lambda: SolveConfig(s=10**6, n=2)),
        (12, lambda: degree_schedule(20, 12)),
    ],
    ids=["R2-s13", "R1-s20", "config-s1e6", "R20-s12"],
)
def test_basis_budget_fails_fast(monkeypatch, s, build):
    # the last block needs more than 2^(s-1) monomials, so s >= 13 is refused
    # without walking the schedule (2^19 degrees at n = 1, s = 20) or writing
    # out 2^(s-1); in R^20 a degree-4 block already holds 10,626 at s = 12
    def enumerated(*args):
        raise AssertionError("a basis was enumerated past the budget guard")

    monkeypatch.setattr(polyalg, "_grlex_exponents", enumerated)
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as err:
        build()
    assert time.perf_counter() - t0 < 0.05
    message = str(err.value)
    assert message.startswith(f"s {s} ") and str(MAX_BASIS_DIM) in message
    assert "\n" not in message
    assert degree_schedule(2, 12)[-1] == 63  # the largest s that fits in R^2


def test_monomial_order_constant_first():
    b = MonomialBasis(2, 2)
    assert b.monomials[:3] == [(0, 0), (1, 0), (0, 1)]
    assert b.monomials[3:] == [(2, 0), (1, 1), (0, 2)]
    assert len(b) == 6


def test_shared_basis_is_read_only():
    b = monomial_basis(2, 3)
    assert b is monomial_basis(2, 3) and b == MonomialBasis(2, 3)
    assert b is from_terms(2, {(3, 0): 1.0}).basis
    with pytest.raises(ValueError):
        b.exponents[0, 0] = 5


def test_eval_examples():
    p = from_terms(2, {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0})
    assert eval_poly(p, (1.0, 1.0)) == pytest.approx(1.0)
    zero = Polynomial(MonomialBasis(2, 3), np.zeros(10))
    assert eval_poly(zero, (0.3, -7.0)) == 0.0
    const = from_terms(2, {(0, 0): 5.0})
    assert eval_poly(const, (3.0, -2.0)) == pytest.approx(5.0)


def test_eval_linear_in_coeffs():
    rng = np.random.default_rng(0)
    basis = MonomialBasis(3, 4)
    c1 = rng.normal(size=len(basis))
    c2 = rng.normal(size=len(basis))
    x = rng.normal(size=3)
    lhs = eval_poly(Polynomial(basis, 2.0 * c1 + 3.0 * c2), x)
    rhs = 2.0 * eval_poly(Polynomial(basis, c1), x) + 3.0 * eval_poly(Polynomial(basis, c2), x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_eval_many_matches_single():
    rng = np.random.default_rng(1)
    basis = MonomialBasis(3, 5)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    X = rng.normal(size=(40, 3))
    vals = eval_poly_many(p, X)
    for i in range(40):
        assert vals[i] == pytest.approx(eval_poly(p, X[i]), rel=1e-12, abs=1e-12)
    assert eval_poly_many(p, np.zeros((0, 3))).shape == (0,)


def test_eval_dimension_mismatch():
    p = from_terms(2, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        eval_poly(p, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        grad(p, (1.0,))


def test_grad_examples():
    p = from_terms(2, {(2, 0): 1.0, (0, 1): 1.0})
    assert grad(p, (1.0, 1.0)) == pytest.approx([2.0, 1.0])
    const = from_terms(2, {(0, 0): 4.0})
    assert grad(const, (0.2, 0.9)) == pytest.approx([0.0, 0.0])
    xy = from_terms(2, {(1, 1): 1.0})
    assert grad(xy, (2.0, 3.0)) == pytest.approx([3.0, 2.0])


def central_diff(p, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (eval_poly(p, x + e) - eval_poly(p, x - e)) / (2 * h)
    return out


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    for n in range(1, 4):
        for D in range(1, 6):
            basis = MonomialBasis(n, D)
            for _ in range(5):
                p = Polynomial(basis, rng.normal(size=len(basis)))
                x = rng.normal(size=n)
                x *= 2.0 / max(1.0, np.linalg.norm(x))  # stay in B_2
                g = grad(p, x)
                fd = central_diff(p, x)
                assert np.allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_grad_bound_univariate_degree1():
    basis = MonomialBasis(1, 1)
    B = grad_bound(basis, 10.0)
    assert B >= 1.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        # derivative of c0 + c1 t is c1
        assert abs(c[1]) <= B


def test_grad_bound_dominates_sampled_suprema():
    rng = np.random.default_rng(4)
    for n in range(1, 4):
        for D in range(1, 6):
            basis = MonomialBasis(n, D)
            for R in (0.0, 0.7, 2.5):
                B = grad_bound(basis, R)
                samples = 10_000 // (n * 5)
                for _ in range(4):
                    c = rng.normal(size=len(basis))
                    c /= np.linalg.norm(c)
                    p = Polynomial(basis, c)
                    pts = rng.normal(size=(samples, n))
                    norms = np.linalg.norm(pts, axis=1, keepdims=True)
                    pts = pts / np.maximum(norms, 1e-12) * (R * rng.uniform(size=(samples, 1)))
                    sup = max(np.linalg.norm(grad(p, x)) for x in pts[:50])
                    assert sup <= B + 1e-9


def test_grad_bound_r_zero():
    rng = np.random.default_rng(5)
    basis = MonomialBasis(2, 3)
    B = grad_bound(basis, 0.0)
    for _ in range(100):
        c = rng.normal(size=len(basis))
        c /= np.linalg.norm(c)
        assert np.linalg.norm(grad(Polynomial(basis, c), np.zeros(2))) <= B + 1e-12


def test_restrict_to_line_matches_eval():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        for D in (1, 2, 3, 5):
            basis = MonomialBasis(n, D)
            p = Polynomial(basis, rng.normal(size=len(basis)))
            a = rng.normal(size=n)
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            q = restrict_to_line(p, a, u)
            for t in rng.normal(size=6):
                direct = eval_poly(p, a + t * u)
                via = float(np.polyval(q[::-1], t))
                assert via == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_restrict_to_line_batch_matches_single():
    rng = np.random.default_rng(7)
    basis = MonomialBasis(2, 3)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    A = rng.normal(size=(15, 2))
    U = rng.normal(size=(15, 2))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    batch = restrict_to_line_batch(p, A, U)
    for i in range(15):
        single = restrict_to_line(p, A[i], U[i])
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-12)


def test_restrict_to_line_batch_pinned_bits():
    # 200 lines through the unit disk and one random polynomial per block
    # degree of s = 4; the digest pins the rows of one uncached restriction
    # per call, which a frame's cached tensors must reproduce bit for bit
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.0, 2 * np.pi, size=200)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    A = rng.uniform(-1.0, 1.0, size=(200, 1)) * np.stack([-U[:, 1], U[:, 0]], axis=1)
    h = hashlib.sha256()
    for D in sorted(set(degree_schedule(2, 4))):
        basis = monomial_basis(2, D)
        p = Polynomial(basis, rng.normal(size=len(basis)))
        h.update(restrict_to_line_batch(p, A, U).tobytes())
    assert h.hexdigest() == "34efbe4e2abd684a44441c727e0dcffc4a32604426963627869a2c0fcc963a4f"


def test_restrict_to_line_batch_shared_factors_pinned_bits():
    # the pinned digest above again, from the tensors of one frame's cache
    # shared by every block degree, filled in ascending and in descending
    # degree order: the cache must serve the uncached bits
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.0, 2 * np.pi, size=200)
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    A = rng.uniform(-1.0, 1.0, size=(200, 1)) * np.stack([-U[:, 1], U[:, 0]], axis=1)
    polys = []
    for D in sorted(set(degree_schedule(2, 4))):
        basis = monomial_basis(2, D)
        polys.append(Polynomial(basis, rng.normal(size=len(basis))))
    for fill in (polys, polys[::-1]):
        tensors = {}
        for p in fill:
            cells.line_restriction_roots(A, U, p, tensors)
        assert sorted(b.D for b in tensors) == [1, 2, 3]
        h = hashlib.sha256()
        for p in polys:
            h.update((p.coeffs @ tensors[p.basis][0]).reshape(200, -1).tobytes())
        assert h.hexdigest() == "34efbe4e2abd684a44441c727e0dcffc4a32604426963627869a2c0fcc963a4f"


def test_monomial_matrix_rounds_as_gather_prod():
    # reference: the gather product in Python floats, x^e by repeated
    # multiplication and each monomial's powers multiplied left to right, as
    # np.prod over the gathered powers rounds; IEEE multiplication
    # rounds correctly, so the table must match it bit for bit on any host,
    # also on rows of signed zeros, subnormals, infinities and NaN
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan])
    for n in range(1, 5):
        for D in range(10):
            basis = monomial_basis(n, D)
            for m in (1, 2, 17, 67):
                X = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 30.0, 1e40])
                if m > 2:
                    X[:8] = rng.permuted(np.broadcast_to(special[:, None], (8, n)), axis=0)
                with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                    got = monomial_matrix(X, basis)
                assert np.array_equal(got, monomial_table_py(X, basis), equal_nan=True)


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 6), st.data())
def test_monomial_matrix_equals_python_loop_on_any_floats(n, D, data):
    X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(n)), elements=_any_float))
    basis = monomial_basis(n, D)
    with np.errstate(all="ignore"):
        got = monomial_matrix(X, basis)
    assert np.array_equal(got, monomial_table_py(X, basis), equal_nan=True)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 7), st.data())
def test_line_tensor_equals_python_recursion_on_any_floats(n, D, data):
    shape = st.tuples(st.integers(1, 4), st.just(n))
    A = data.draw(hnp.arrays(np.float64, shape, elements=_any_float))
    U = data.draw(hnp.arrays(np.float64, A.shape, elements=_any_float))
    basis = monomial_basis(n, D)
    with np.errstate(all="ignore"):
        T = line_restriction_tensor(basis, A, U).reshape(len(basis), len(A), D + 1)
    for k, (a, u) in enumerate(zip(A.tolist(), U.tolist())):
        ref = np.array(line_tensor_py(a, u, basis))
        assert np.array_equal(T[:, k], ref, equal_nan=True)


def test_restrict_to_line_batch_within_rounding_of_exact():
    # against the restriction expanded in exact rationals: coefficient k may
    # be off by at most K * 2^-52 times the same expansion taken over the
    # magnitudes of every input, K = 2D + 2n + dim + 2 counting the roundings
    # on the longest chain (powers, factor products, convolution sums and the
    # sum over monomials), as in Higham's gamma_K bound with a factor 2 spare
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        for D in range(8):
            basis = monomial_basis(n, D)
            p = Polynomial(basis, rng.normal(size=len(basis)))
            A = rng.normal(size=(6, n)) * 2.0
            U = rng.normal(size=(6, n))
            got = restrict_to_line_batch(p, A, U)
            K = 2 * D + 2 * n + len(basis) + 2
            for row in range(len(A)):
                exact = restrict_to_line_exact(p, A[row], U[row])
                mags = restrict_to_line_exact(p, A[row], U[row], absolute=True)
                for k in range(D + 1):
                    err = abs(Fraction(float(got[row, k])) - exact[k])
                    assert err <= K * Fraction(1, 2**52) * mags[k]


def test_monomial_matrix_columns_and_eval():
    rng = np.random.default_rng(4)
    basis = monomial_basis(3, 3)
    X = rng.normal(size=(25, 3))
    M = monomial_matrix(X, basis)
    assert M.shape == (25, len(basis))
    for col, expo in enumerate(basis.monomials):
        assert np.allclose(M[:, col], np.prod(X ** np.array(expo), axis=1), rtol=1e-13)
    p = Polynomial(basis, rng.normal(size=len(basis)))
    assert np.array_equal(eval_poly_many(p, X), M @ p.coeffs)
    # graded-lex: a lower-degree basis is a prefix of the columns
    assert np.array_equal(monomial_matrix(X, monomial_basis(3, 2)), M[:, : basis_dim(3, 2)])
    with pytest.raises(ValueError):
        monomial_matrix(X[:, :2], basis)


@settings(max_examples=40)
@given(
    st.integers(1, 3),
    st.integers(0, 6),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_monomial_matrix_stacked_rows_exact(n, D, sizes, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(m, n)) * 3.0 for m in sizes]
    basis = monomial_basis(n, D)
    stacked = monomial_matrix(np.concatenate(blocks), basis)
    assert np.array_equal(stacked, np.concatenate([monomial_matrix(b, basis) for b in blocks]))
