import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polypart import cells, polyalg
from polypart.cells import (
    CellCounts,
    RootIsolationError,
    SamplingConfig,
    counts,
    index_w,
    isolate_real_roots_flat,
    line_cell_sets,
    point_counts,
    sign_vector_many,
    w_index,
)
from oracles import (
    bracket_holds_root,
    from_terms,
    restrict_to_line,
    sturm_chain_exact,
    sturm_count_exact,
)
from polypart.polyalg import MonomialBasis, Polynomial, degree_schedule, restrict_to_line_batch
from polypart.sphereprod import flip, random_point, to_polys
from polypart.varieties import circle, kplane, line

X = from_terms(2, {(1, 0): 1.0})
Y = from_terms(2, {(0, 1): 1.0})


def test_w_index_roundtrip():
    for s in range(1, 5):
        for i in range(2**s):
            assert w_index(index_w(i, s)) == i


def test_sign_vector_examples():
    # X and Y have unit coefficient norm, so the boundary tolerance is 1e-9
    idx, boundary = sign_vector_many([X, Y], [(1.0, -2.0), (0.0, 1.0)])
    assert idx[0] == w_index((0, 1)) and boundary.tolist() == [False, True]
    _, boundary = sign_vector_many([X], [(1e-13, 0.5)])
    assert boundary.tolist() == [True]
    idx, boundary = sign_vector_many([X], [(1.0, 0.5)])
    assert idx.tolist() == [w_index((0,))] and boundary.tolist() == [False]


def test_cell_counts_helpers():
    cc = CellCounts(2, [2, 1, 1, 0])
    assert list(cc.table) == [2, 1, 1, 0]
    assert cc[(1, 0)] == 1
    assert cc[(0, 1)] == 1
    assert cc == CellCounts(2, np.array([2, 1, 1, 0]))


def test_indicator_examples():
    # the sampled indicator of cell w is the count of w for a one-variety family
    cfg = SamplingConfig(R=2.0, count=512, seed=0)
    y1 = line((0.0, 1.0), (1.0, 0.0))
    entered = counts([y1], [X, Y], cfg)
    assert entered[(0, 0)] == 1 and entered[(0, 1)] == 0
    xaxis = line((0.0, 0.0), (1.0, 0.0))
    assert counts([xaxis], [X, Y], cfg) == CellCounts.zeros(2)  # whole line on Z(P_2)


def test_counts_quadrant_example():
    cfg = SamplingConfig(R=2.0, count=512, seed=0)
    Gamma = [line((0.0, 1.0), (1.0, 0.0)), line((1.0, 0.0), (0.0, 1.0))]
    cc = counts(Gamma, [X, Y], cfg)
    assert cc.table.tolist() == [2, 1, 1, 0]


def test_one_plane_is_counted_exactly():
    # y = 0.5 given as a 1-plane crosses x = 0: exactly, it enters both
    # cells of X, where one sample of it would see one
    plane = kplane((0.0, 0.5), [[1.0, 0.0]])
    sampling = SamplingConfig(R=2.0, count=1, seed=0)
    assert counts([plane], [X], sampling, exact_lines=True).table.tolist() == [1, 1]


def test_counts_empty_and_monotone():
    cfg = SamplingConfig(R=2.0, count=256, seed=1)
    assert counts([], [X, Y], cfg) == CellCounts.zeros(2)
    rng = np.random.default_rng(2)
    Gamma = []
    prev = np.zeros(4, dtype=np.int64)
    for i in range(6):
        a = rng.normal(size=2)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        Gamma.append(line(a, u))
        cur = counts(Gamma, [X, Y], cfg).table
        assert np.all(cur >= prev)
        prev = cur


def test_counts_exact_lines_match_enumeration():
    cfg = SamplingConfig(R=4.0, count=2048, seed=3)
    Gamma = [line((0.0, 1.0), (1.0, 0.0)), line((1.0, 0.0), (0.0, 1.0))]
    assert counts(Gamma, [X, Y], cfg, exact_lines=True) == counts(Gamma, [X, Y], cfg)


def test_library_paths_guard_the_tensor_size(monkeypatch):
    # degree 40 in R^2 on 300 lines needs 300 * 861 * 41 floats, 81 MiB, just
    # over the cap: both paths raise before building a tensor
    def build(*args):
        raise AssertionError("a tensor was built past the size guard")

    monkeypatch.setattr(cells, "line_restriction_tensor", build)
    monkeypatch.setattr(polyalg, "line_restriction_tensor", build)
    lines = unit_disk_lines(0, m=300)
    p = from_terms(2, {(40, 0): 1.0, (0, 0): -1.0})
    calls = [
        lambda: counts(lines, [p], SamplingConfig(), exact_lines=True),
        lambda: line_cell_sets(lines, [p]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^s 1 on 300 lines needs 80.8 MiB"):
            call()


def test_counts_point_variety_single_cell():
    from polypart.varieties import kplane

    pt = kplane((0.7, 0.9), np.zeros((0, 2)))  # sits in the (+, +) quadrant
    cc = counts([pt], [X, Y], SamplingConfig(R=2.0, count=8, seed=0))
    assert cc.table.tolist() == [1, 0, 0, 0]


def test_counts_rejects_large_s():
    cfg = SamplingConfig(R=2.0, count=8, seed=0)
    with pytest.raises(ValueError):
        counts([], [X] * 21, cfg)


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_sampling_config_rejects_radii_it_cannot_sample(R):
    # samples are drawn in a ball of finite radius R > 0
    with pytest.raises(ValueError, match="radius"):
        SamplingConfig(R=R)


@pytest.mark.parametrize("count", [0, -3])
def test_sampling_config_rejects_counts_below_one(count):
    # None, not 0, asks for the density default
    with pytest.raises(ValueError, match="count >= 1"):
        SamplingConfig(R=2.0, count=count)


def test_point_counts():
    pts = np.array([[1.0, 1.0], [-2.0, 0.5], [3.0, -1.0], [0.0, 1.0]])
    cc = point_counts(pts, [X, Y])
    assert cc[(0, 0)] == 1 and cc[(1, 0)] == 1 and cc[(0, 1)] == 1
    assert cc.table.sum() == 3  # boundary point drops out


def roots_oracle(asc, tol=1e-7):
    """Independent root finder: companion-matrix roots of the polynomial."""
    c = np.asarray(asc, dtype=float)[::-1]
    c = np.trim_zeros(c, "f")
    if len(c) <= 1:
        return np.array([])
    r = np.roots(c)
    real = np.sort(r[np.abs(r.imag) < tol].real)
    # merge clustered real parts (multiple roots)
    out = []
    for t in real:
        if not out or t - out[-1] > 1e-6 * max(1.0, abs(t)):
            out.append(t)
    return np.array(out)


def isolate_rows(coeff_rows):
    """isolate_real_roots_flat split into one array of roots per row."""
    owners, roots = isolate_real_roots_flat(coeff_rows)
    ends = np.searchsorted(owners, np.arange(len(coeff_rows) + 1))
    return [roots[a:b] for a, b in zip(ends[:-1], ends[1:])]


def test_isolation_matches_companion_oracle():
    rng = np.random.default_rng(4)
    for deg in range(1, 9):
        rows = [rng.normal(size=deg + 1) for _ in range(30)]
        got = isolate_rows(rows)
        for asc, mine in zip(rows, got):
            expected = roots_oracle(asc)
            assert len(mine) == len(expected)
            if len(mine):
                assert np.allclose(mine, expected, atol=1e-6, rtol=1e-6)


def within_h(got, want):
    """got matches want root for root, each within h = 0.5e-12*max(1, |root|)."""
    want = np.asarray(want, dtype=float)
    return len(got) == len(want) and bool(
        (np.abs(got - want) <= 0.5e-12 * np.maximum(1.0, np.abs(want))).all()
    )


def test_isolation_multiple_roots():
    # (t-1)^2 (t+2): the root 1 comes once per unit of its multiplicity
    asc = np.array([2.0, -3.0, 0.0, 1.0])
    (roots,) = isolate_rows([asc])
    assert within_h(roots, [-2.0, 1.0, 1.0])


def fallback_rows(coeff_rows):
    """_exact_roots one trimmed degree at a time, split into one array of
    roots per row; constant and all-zero rows have none."""
    C = cells._as_rows(coeff_rows)
    deg = cells._degrees(C)
    out = [np.zeros(0) for _ in C]
    for d in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == d)
        ri, t = cells._exact_roots(C[rows, d::-1])
        for i, r in zip(rows, np.split(t, np.searchsorted(ri, np.arange(1, len(rows))))):
            out[i] = r
    return out


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of every _exact_roots call, in call order."""
    calls = []
    real = cells._exact_roots
    monkeypatch.setattr(cells, "_exact_roots", lambda P: calls.append(len(P)) or real(P))
    return calls


def cauchy_bound(asc):
    c = np.trim_zeros(np.asarray(asc, dtype=float)[::-1], "f")
    return 1.0 + np.abs(c[1:]).max() / abs(c[0])


def test_isolation_batched_agrees_with_bisection():
    # certified rows against the exact fallback on the same rows
    rng = np.random.default_rng(10)
    rows = []
    for deg in range(1, 9):
        rows += [rng.normal(size=deg + 1) for _ in range(25)]
    # generic rows are certified, so the comparison below exercises the new path
    assert not any(cells._certified_roots(r[None, ::-1])[0].any() for r in rows)
    # leading near-zeros trim to a lower degree; constants have no roots
    rows += [np.r_[rng.normal(size=3), 1e-17], np.r_[rng.normal(size=2), 0.0, 0.0]]
    rows += [np.array([2.5]), np.zeros(4)]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    padded = np.zeros((len(rows), 9))
    for i, r in enumerate(rows):
        padded[i, : len(r)] = r
    expected = fallback_rows(rows)
    got_list = isolate_rows(rows)
    got_array = isolate_rows(padded)
    for asc, want, a, b in zip(rows, expected, got_list, got_array):
        assert np.array_equal(a, b)
        assert len(a) == len(want)
        if len(a):
            assert np.abs(a - want).max() <= 1e-12 * max(1.0, cauchy_bound(asc))


def brackets_a_sign_change(asc, root):
    """Whether the row asc takes opposite exact signs at root -+ 0.5e-12*max(1, |root|)."""
    return bracket_holds_root(asc, root, 0.5e-12 * max(1.0, abs(root)))


@pytest.mark.parametrize(
    "asc, mult, want",
    [
        # None marks a root with no closed form here
        pytest.param([1.0 + 1e-10, -(2.0 + 1e-10), 1.0], [1, 1], [None] * 2, id="asc0"),
        pytest.param([2.0, -3.0, 0.0, 1.0], [1, 2], [-2, 1, 1], id="asc1"),
        pytest.param(
            [0.0, 2.0, 3.0, 0.0, 0.0, -1.0, -5.0, -3.0],
            [2, 1, 1, 1],
            [-1, -1, None, 0, None],
            id="asc2",
        ),
        pytest.param([-1.0, 0.0, 1.0, 2.0**-45], [1, 1, 1], [None] * 3, id="asc3"),
        pytest.param([2.0, 2.0, -3.0, -3.0, 0.0, -1.0, 3.0], [2], [1, 1], id="asc4"),
        pytest.param(
            [157.68766593933105, 9.062532424926758, -11.500007629394531, 1.0],
            [1, 1, 1],
            [-3, 7.25, 7.25 + 2.0**-17],
            id="asc5",
        ),
        pytest.param([0.0, -2.0, 1.0, 2.0, 0.0, -2.0, 3.0, -2.0], [1, 2], [0, 1, 1], id="asc6"),
        pytest.param(
            [-1.0, 1.0, 4.0, 0.0, -4.0, -2.0, 0.0, -1.0, 3.0],
            [1, 1, 2],
            [None, None, 1, 1],
            id="asc7",
        ),
    ],
)
def test_isolation_uncertified_rows_take_bisection(asc, mult, want):
    # (t-1)(t-1-1e-10) raised and (t-1)^2 (t+2) came back 1e-8 off at the float
    # bisection; -3t^7 - 5t^6 - t^5 + 3t^2 + 2t has a double root at -1; the
    # fourth row's leading coefficient is 2^-45 of its largest. Float chains
    # certified 3t^6 - t^5 - 3t^3 - 3t^2 + 2t + 2 with no root, the close pair
    # of (t + 3)(t - 7.25)(t - 7.25 - 2^-17) 8.6 h from its roots, and the last
    # two rows (double roots at 1) with a wrong distinct count. Each row
    # fails certification and takes the exact fallback: the rows of degree 4
    # and up have a repeated root, so their inclusion disks overlap.
    asc = np.array(asc)
    bad, rows, roots = cells._certified_roots(asc[None, ::-1])
    assert bad.tolist() == [True] and len(rows) == len(roots) == 0
    (got,) = isolate_rows([asc])
    assert np.array_equal(got, fallback_rows([asc])[0])
    values, mults = np.unique(got, return_counts=True)
    assert mults.tolist() == mult and len(mult) == sturm_count_exact(asc)
    known = [i for i, w in enumerate(want) if w is not None]
    assert within_h(got[known], [want[i] for i in known])
    # every root of odd multiplicity is bracketed by an exact sign change
    assert all(brackets_a_sign_change(asc, t) for t in values[mults % 2 == 1])


@st.composite
def repeated_root_rows(draw):
    """(descending integer row times a power of two, its real roots with
    multiplicity): a product of (t - r)^m over distinct integers r and at most
    one (t^2 - q)^m, q = -1 giving no real root; degree 2 to 8, m 1 to 3."""
    root = st.tuples(st.integers(-6, 6), st.integers(1, 3))
    factors = draw(st.lists(root, min_size=1, max_size=4, unique_by=lambda f: f[0]))
    q, mq = draw(st.sampled_from([-1, 2, 3, 5])), draw(st.integers(0, 2))
    assume(2 <= sum(m for _, m in factors) + 2 * mq <= 8)
    row, roots = np.array([1.0]), []
    for r, m in factors:
        row = np.polymul(row, np.poly([r] * m))
        roots += [float(r)] * m
    for _ in range(mq):
        row = np.polymul(row, [1.0, 0.0, -q])
    if q > 0:
        roots += [math.sqrt(q), -math.sqrt(q)] * mq
    return row * 2.0 ** draw(st.integers(-40, 40)), sorted(roots)


@settings(max_examples=200)
@given(repeated_root_rows())
def test_exact_fallback_on_repeated_roots(case):
    P, want = case
    ri, got = cells._exact_roots(P[None])
    assert ri.tolist() == [0] * len(got)
    assert within_h(got, want)
    assert len(np.unique(got)) == sturm_count_exact(P[::-1])
    # the same roots through the float filter, certified roots held to the
    # certificate's h = 0.5e-12*max(1, M)
    owners, flat = isolate_real_roots_flat([P[::-1]])
    h = 0.5e-12 * max(1.0, cauchy_bound(P[::-1]))
    assert len(flat) == len(want) and bool((np.abs(flat - want) <= h).all())


def test_degree_drops_are_certified(exact_rows):
    # each row's exact remainder sequence drops more than one degree in a
    # step, and each row has simple real roots only. The cubics'
    # discriminants certify them; the inclusion disks around the eigenvalues
    # of t^5 - t and t^4 - 1 are disjoint, which certifies those two, so no
    # row takes the exact fallback.
    rows = [
        ([1.0, 0.0, 0.0, 1.0], [-1.0]),  # t^3 + 1
        ([1.0, 0.0, 0.0, 2.0], [-(2.0 ** (-1 / 3))]),  # 2t^3 + 1
        ([-8.0, 0.0, 0.0, 1.0], [2.0]),  # t^3 - 8
        ([-1.0, 3.0, 3.0, 1.0], [2.0 ** (1 / 3) - 1.0]),  # (t + 1)^3 - 2
        ([0.0, -1.0, 0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),  # t^5 - t
        ([-1.0, 0.0, 0.0, 0.0, 1.0], [-1.0, 1.0]),  # t^4 - 1
    ]
    for asc, _ in rows:
        degrees = [len(e) - 1 for e in sturm_chain_exact(asc)]
        assert max(a - b for a, b in zip(degrees, degrees[1:])) > 1
    C = cells._as_rows([asc for asc, _ in rows])
    owners, roots = cells._isolate(C, cells._degrees(C))
    assert exact_rows == []
    for i, (asc, want) in enumerate(rows):
        h = 0.5e-12 * max(1.0, cauchy_bound(asc))
        got = roots[owners == i]
        assert len(got) == len(want) and np.abs(got - want).max() <= h


def test_exact_fallback_returns_dyadic_roots_exactly():
    # a part that is exactly zero at a bisection point returns that point
    assert cells._exact_roots(np.array([[1.0, 0.0, -1.0]]))[1].tolist() == [-1.0, 1.0]
    # -2t^7 + 3t^6 - 2t^5 + 2t^3 + t^2 - 2t: the root 0 once and 1 twice
    P = np.array([[-2.0, 3.0, -2.0, 0.0, 2.0, 1.0, -2.0, 0.0]])
    assert cells._exact_roots(P)[1].tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "asc",
    [
        ["-0x1.5b505c90a0654p+23", "0x1.428557ce995d6p+23", "-0x1.8f53f118655cdp+21", "0x1.499d92d8e84b6p+18"],
        ["-0x1.ba604694a0f75p+19", "0x1.71be28ddbe2bdp+19", "-0x1.9b22697fa3164p+17", "0x1.3007abe9a6a97p+14"],
    ],
    ids=["cubic0", "cubic1"],
)
def test_close_pair_cubics_keep_their_roots_in_the_brackets(asc):
    # float Sturm readings at t -+ h certified both roots of each close pair,
    # roots about 1e-3 and 1e-4 apart, with no root in either bracket
    asc = np.array([float.fromhex(c) for c in asc])
    (got,) = isolate_rows([asc])
    h = 0.5e-12 * max(1.0, cauchy_bound(asc))
    assert len(got) == sturm_count_exact(asc) == 3
    assert all(bracket_holds_root(asc, t, h) for t in got)


@st.composite
def close_pair_rows(draw):
    """Ascending square-free rows of degree 2 to 6 with two real roots
    10^U(-6, -2) apart, the other roots distinct integers or complex pairs
    +-i, +-sqrt(3)i, scaled by 10^U(-8, 8)."""
    d = draw(st.integers(2, 6))
    r, gap = draw(st.floats(-10.0, 10.0)), 10.0 ** draw(st.floats(-6.0, -2.0))
    cplx = draw(st.lists(st.sampled_from([1.0, 3.0]), unique=True, max_size=(d - 2) // 2))
    n = d - 2 - 2 * len(cplx)
    others = draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n, unique=True))
    assume(all(abs(o - r) >= 0.25 and abs(o - r - gap) >= 0.25 for o in others))
    row = np.poly([r, r + gap, *others])
    for q in cplx:
        row = np.polymul(row, [1.0, 0.0, q])
    return row[::-1] * 10.0 ** draw(st.floats(-8.0, 8.0))


@settings(max_examples=120)
@given(close_pair_rows())
def test_close_pair_roots_are_bracketed(asc):
    (got,) = isolate_rows([asc])
    h = 0.5e-12 * max(1.0, cauchy_bound(asc))
    assert len(got) == sturm_count_exact(asc)
    assert all(bracket_holds_root(asc, t, h) for t in got)


def _exact_value(asc, x):
    """asc at the float or complex x in exact rationals, as (real, imaginary)."""
    re, im, xr, xi = Fraction(0), Fraction(0), Fraction(x.real), Fraction(x.imag)
    for c in asc[::-1]:
        re, im = re * xr - im * xi + Fraction(c), re * xi + im * xr
    return re, im


def _exact_discriminant(asc):
    if len(asc) == 3:
        c, b, a = map(Fraction, asc)
        return b * b - 4 * a * c
    d, c, b, a = map(Fraction, asc)
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


@settings(max_examples=150)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=2, max_size=9),
    st.sampled_from([-60, 0, 60]),
    st.lists(st.floats(-20.0, 20.0), max_size=3),
    st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)), max_size=2),
    st.lists(st.floats(0.0, 2.0 * np.pi), max_size=2),
)
@example([0.0, 0.0, 1.0], 0, [], [], [])  # t^2: a zero discriminant
@example([2.0**-600, 0.0, 0.0, 2.0**-600], 0, [1e-300], [(1e-300, -1e-300)], [])  # underflow
def test_rounding_bounds_hold(asc, k, xs, zs, angles):
    asc = np.ldexp(np.array(asc), k)
    assume(abs(asc[-1]) > cells._TRIM_TOL * np.abs(asc).max())  # rows that survive the trim
    M = cauchy_bound(asc)
    # real points, and complex ones: drawn, and on or near the circle |z| = M
    x = np.array([-M, M, *xs])
    z = np.array([complex(*p) for p in zs] + [M * np.exp(1j * a) for a in angles])
    for pts in (x, z):
        v, err = cells._horner(np.tile(asc[::-1], (len(pts), 1)), pts)
        for vi, ei, pi in zip(np.asarray(v, dtype=complex), err, pts):
            re, im = _exact_value(asc, pi)
            off = (Fraction(vi.real) - re) ** 2 + (Fraction(vi.imag) - im) ** 2
            assert off <= Fraction(ei) ** 2
    if len(asc) in (3, 4):
        (disc,), (err,) = cells._discriminant(asc[None, ::-1])
        assert abs(Fraction(disc) - _exact_discriminant(asc)) <= Fraction(err)


@st.composite
def sparse_integer_rows(draw):
    """Rows of one degree d in 4..8, as descending coefficients: small
    integers, most of them zero, so that remainder sequences drop degrees;
    some rows are multiplied by the square of a small integer factor of
    degree 1 or 2, which forces a repeated root, real or not."""
    d = draw(st.integers(4, 8))
    factor = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda g: g[0] != 0)
    rows = []
    for g in draw(st.lists(st.one_of(st.none(), factor), min_size=1, max_size=6)):
        k = d if g is None else d + 2 - 2 * len(g)
        rest = np.array(draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)))
        zeros = draw(st.integers(0, 2**k - 1)) >> np.arange(k) & 1  # about half of them
        row = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), *rest * (1 - zeros)]
        rows.append(row if g is None else np.polymul(row, np.polymul(g, g)))
    return np.array(rows, dtype=float)


@settings(max_examples=120)
@given(sparse_integer_rows())
# double roots at 1, whose float Sturm chains ended in a remainder of rounding noise
@example(np.array([[-2.0, 3, -2, 0, 2, 1, -2, 0]]))
@example(np.array([[3.0, -1, 0, -2, -4, 0, 4, 1, -1]]))
def test_disk_counts_are_exact(P):
    # a row the inclusion disks accept has the exact count of distinct real
    # roots, and a row with a repeated root (a non-constant exact gcd of the
    # row and its derivative) is rejected
    Q = np.ldexp(P, -np.frexp(np.abs(P).max(axis=1))[1][:, None])
    count = cells._disk_count(Q, cells._companion_roots(P))
    bad, rows, _ = cells._certified_roots(P)
    for i, row in enumerate(P):
        if len(sturm_chain_exact(row[::-1])[-1]) > 1:
            assert count[i] == -1 and bad[i]
        elif count[i] >= 0:
            assert count[i] == sturm_count_exact(row[::-1])
        if not bad[i]:
            assert (rows == i).sum() == count[i]


def _endpoint_on_root(h):
    r = 1.0 - h
    while r + h != 1.0:
        r = np.nextafter(r, 2.0 if r + h < 1.0 else 0.0)
    return r


@pytest.mark.parametrize(
    "cands",
    [
        [np.inf, 1.0],  # a real root is missing: the Sturm count is 2
        [-1.0, 1.0 + 1e-6],  # a bracket holds no root
        [1.0, 1.0 + 1e-13],  # overlapping brackets around one root
        [-1.0, _endpoint_on_root(1e-12)],  # a bracket ends on the root t = 1
    ],
)
def test_certification_rejects_wrong_candidates(monkeypatch, exact_rows, cands):
    P = np.array([[1.0, 0.0, -1.0]])  # t^2 - 1, Cauchy bound 2, h = 1e-12
    bad, rows, roots = cells._certified_roots(P)
    assert not bad.any() and rows.tolist() == [0, 0] and roots.tolist() == [-1.0, 1.0]
    # wrong closed-form candidates reject the row, and the exact fallback isolates it
    monkeypatch.setattr(cells, "_closed_form_roots", lambda P: np.array([cands]))
    bad, rows, roots = cells._certified_roots(P)
    assert bad.tolist() == [True] and len(rows) == len(roots) == 0
    owners, roots = cells._isolate(P[:, ::-1], np.array([2]))
    assert exact_rows == [1] and owners.tolist() == [0, 0] and within_h(roots, [-1.0, 1.0])


@pytest.mark.parametrize(
    "P, want",
    [
        ([1.0, 0.0, 1.0], []),  # t^2 + 1: a negative discriminant
        ([1.0, 0.0, 0.0], None),  # t^2: a double root, q = 0
        ([1.0, 0.0, 0.0, 0.0], None),  # t^3: a triple root, q = 0 and p = 0
        ([1.0, -3.0, 3.0, -1.0], None),  # (t - 1)^3: a triple root off zero
        ([1.0, 0.0, 1.0, 0.0], [0.0]),  # t^3 + t: one real root, q = 0
        ([1.0, 0.0, -1.0, 0.0], [-1.0, 0.0, 1.0]),  # three real roots, q = 0
        ([1.0, 0.0, 1.0, 1.0], [-0.6823278038280193]),  # Cardano's branch
        # Cardano's branch with p = 0; its discriminant certifies it
        ([2.0, 0.0, 0.0, 1.0], [-(2.0 ** (-1 / 3))]),
    ],
)
def test_closed_form_roots_warn_nothing(P, want):
    # pyproject turns any RuntimeWarning into an error; None marks a row
    # that certification rejects
    P = np.array([P])
    assert cells._closed_form_roots(P).shape == (1, P.shape[1] - 1)
    bad, rows, roots = cells._certified_roots(P)
    if want is None:
        assert bad.tolist() == [True] and len(roots) == 0
    else:
        assert not bad.any() and np.allclose(roots, want, rtol=0.0, atol=1e-15)


def test_isolation_errors_still_raise():
    # only a non-finite row raises; a finite nonzero row always gets its roots
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(RootIsolationError, match="row 1 has a non-finite coefficient"):
            isolate_rows([np.array([1.0, -1.0]), np.array([2.0, bad, 1.0])])


def test_isolation_silences_overflow_on_rejected_rows():
    # 1 + 1e-300 t + t^3: its float remainder sequence divides by 1e-300 and
    # overflows, and certification rejects the row
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        owners, roots = isolate_real_roots_flat(np.array([[1.0, 1e-300, 0.0, 1.0]]))
    assert owners.tolist() == [0] and abs(roots[0] + 1.0) <= 1e-12  # 0.5e-12 * max(1, M)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(-8.0, 8.0),  # log10 |c1|
            st.floats(-13.0, 13.999),  # log10 |c0 / c1|, up to the 1e-14 trim
            st.sampled_from([-1.0, 1.0]),
            st.sampled_from([-1.0, 0.0, 1.0]),
        ),
        min_size=1,
        max_size=20,
    )
)
@example([(0.0, 13.999999, 1.0, -1.0), (-8.0, -13.0, -1.0, 1.0), (3.0, 5.0, 1.0, 0.0)])
def test_linear_rows_certify_to_the_closed_form(rows):
    C = np.array([[s0 * 10.0 ** (a + r), s1 * 10.0**a] for a, r, s1, s0 in rows])
    assert (cells._degrees(C) == 1).all()  # every row survives the trim
    closed = -C[:, 0] / C[:, 1]
    bad, ri, t = cells._certified_roots(C[:, ::-1])
    assert not bad.any() and ri.tolist() == list(range(len(C)))
    assert np.array_equal(t.view(np.int64), closed.view(np.int64))  # bit for bit, -0.0 too
    owners, roots = isolate_real_roots_flat(C)
    assert owners.tolist() == ri.tolist()
    assert np.array_equal(roots.view(np.int64), closed.view(np.int64))


_signed_mag = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 8.0)).map(
    lambda sm: sm[0] * 10.0 ** sm[1]
)


@st.composite
def low_degree_row(draw):
    """Ascending coefficients of degree 2 or 3: magnitudes 1e-8 to 1e8 with
    zero c or b, near-double roots, or a leading coefficient near the trim."""
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["coeffs", "near_double", "near_trim"]))
    if kind == "near_double":
        r = draw(st.floats(-10.0, 10.0))
        gap = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-4]))
        rest = [draw(st.floats(-10.0, 10.0)) for _ in range(d - 2)]
        row = np.poly([r, r + gap, *rest])[::-1] * draw(_signed_mag)
    else:
        row = np.array([draw(st.one_of(st.just(0.0), _signed_mag)) for _ in range(d + 1)])
        row[d] = draw(_signed_mag)
        if kind == "near_trim":
            row[d] = draw(st.sampled_from([-1.0, 1.0])) * draw(
                st.sampled_from([0.9, 1.0001, 1.5, 10.0])
            ) * cells._TRIM_TOL * np.abs(row[:d]).max(initial=1.0)
    return row


@settings(max_examples=300)
@given(st.lists(low_degree_row(), min_size=1, max_size=6))
@example([np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 1.0])])
@example(  # a near-double root whose closed-form candidates are rejected
    [np.array([-0.15014045870797615, -1.5677092121086844, -4.710519573927404, -3.0941877836667])]
)
def test_closed_form_candidates_agree_with_eigvals(rows):
    # every root, certified or exactly isolated, is within h of the exact
    # fallback's root on its row
    C = cells._as_rows(rows)
    deg = cells._degrees(C)
    owners, roots = isolate_real_roots_flat(C)
    want = fallback_rows(rows)
    assert owners.tolist() == [i for i, r in enumerate(want) for _ in r]
    lead = np.abs(C[np.arange(len(C)), deg])
    M = 1.0 + np.where(np.arange(C.shape[1]) < deg[:, None], np.abs(C), 0.0).max(axis=1) / lead
    exact = np.concatenate(want)
    assert (np.abs(roots - exact) <= 0.5e-12 * np.maximum(1.0, M[owners])).all()


_coeff = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False),
)


@settings(max_examples=60)
@given(st.lists(st.lists(_coeff, min_size=1, max_size=7), min_size=1, max_size=8))
def test_isolation_batching_invariance(rows):
    rows = [np.array(r) for r in rows]
    try:
        singles = [isolate_rows([r])[0] for r in rows]
    except RootIsolationError:
        with pytest.raises(RootIsolationError):
            isolate_rows(rows)
        return
    for a, b in zip(isolate_rows(rows), singles):
        assert np.array_equal(a, b)


def test_cells_entered_line_examples():
    xaxis = line((0.0, 0.0), (1.0, 0.0))
    xm1 = from_terms(2, {(1, 0): 1.0, (0, 0): -1.0})
    assert line_cell_sets([xaxis], [xm1])[0] == {(0,), (1,)}
    yp1 = from_terms(2, {(0, 1): 1.0, (0, 0): 1.0})
    assert line_cell_sets([xaxis], [yp1])[0] == {(0,)}
    # degenerate: the line lies inside Z(y)
    assert line_cell_sets([xaxis], [Y])[0] == set()


def random_unit_poly(rng, n, D):
    basis = MonomialBasis(n, D)
    c = rng.normal(size=len(basis))
    return Polynomial(basis, c / np.linalg.norm(c))


def random_line(rng, n):
    a = rng.normal(size=n)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    return line(a, u)


def test_line_bound_and_oracle_agreement():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = 2 if trial % 2 == 0 else 3
        degs = rng.integers(1, 4, size=rng.integers(1, 4))
        pvec = [random_unit_poly(rng, n, int(d)) for d in degs]
        g = random_line(rng, n)
        ws = line_cell_sets([g], pvec)[0]
        D = sum(p.degree() for p in pvec)
        assert 1 <= len(ws) <= D + 1
        # cross-check interval structure against the companion-matrix oracle
        all_roots = np.concatenate(
            [roots_oracle(restrict_to_line(p, g.sampler.point, g.sampler.direction)) for p in pvec]
        )
        assert len(ws) <= len(all_roots) + 1


def test_sampled_subset_of_exact():
    rng = np.random.default_rng(6)
    cfg = SamplingConfig(R=6.0, count=4096, seed=7)
    for _ in range(25):
        pvec = [random_unit_poly(rng, 2, int(d)) for d in rng.integers(1, 4, size=2)]
        g = random_line(rng, 2)
        exact = line_cell_sets([g], pvec)[0]
        table = counts([g], pvec, cfg).table
        assert table.max() <= 1
        assert {index_w(i, len(pvec)) for i in np.flatnonzero(table)} <= exact


def test_line_cell_sets_batched_consistent():
    rng = np.random.default_rng(8)
    pvec = [random_unit_poly(rng, 2, d) for d in (1, 2, 3)]
    lines = [random_line(rng, 2) for _ in range(20)]
    batched = line_cell_sets(lines, pvec)
    for g, ws in zip(lines, batched):
        assert line_cell_sets([g], pvec)[0] == ws


@settings(max_examples=40)
@given(
    st.integers(2, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_random_line_enters_at_most_d_plus_one_cells(n, degs, seed):
    rng = np.random.default_rng(seed)
    pvec = [random_unit_poly(rng, n, d) for d in degs]
    ws = line_cell_sets([random_line(rng, n)], pvec)[0]
    assert 1 <= len(ws) <= sum(p.degree() for p in pvec) + 1


@settings(max_examples=30)
@given(
    st.integers(2, 3),
    st.integers(1, 4).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s))),
    st.integers(0, 2**32 - 1),
)
def test_flip_negates_one_polynomial_and_permutes_line_table(n, s_j, seed):
    s, j = s_j
    rng = np.random.default_rng(seed)
    x = random_point(s, seed)
    lines = [random_line(rng, n) for _ in range(8)]
    pvec, flipped = to_polys(x, n), to_polys(flip(x, j), n)
    for jj, (p, q) in enumerate(zip(pvec, flipped), start=1):
        assert np.array_equal(q.coeffs, -p.coeffs if jj == j else p.coeffs)
    sampling = SamplingConfig(R=3.0, seed=seed)
    base = counts(lines, pvec, sampling, exact_lines=True).table
    moved = counts(lines, flipped, sampling, exact_lines=True).table
    # negating P_j toggles bit j - 1 of every cell index: w -> w + e_j
    assert np.array_equal(moved, base[np.arange(2**s) ^ (1 << (j - 1))])


def unit_disk_lines(seed, m=200):
    """Criterion 8's family shape: m lines meeting the unit disk."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, size=m)
    rho = rng.uniform(-1.0, 1.0, size=m)
    return [
        line(r * np.array([-np.sin(t), np.cos(t)]), (np.cos(t), np.sin(t)))
        for t, r in zip(theta, rho)
    ]


def merged_gap_points(restrictions, m):
    """(line, t) at every gap between a line's merged roots, as _line_cells
    merges them, and one unit beyond its extreme roots; t = 0 on rootless lines."""
    owners = np.concatenate([r.owners for r in restrictions])
    roots = np.concatenate([r.roots for r in restrictions])
    out = []
    for i in range(m):
        clusters = []
        for t in np.sort(roots[owners == i]):
            if not clusters or t - clusters[-1][-1] > cells._MERGE_TOL * max(1.0, abs(t)):
                clusters.append([t])
            else:
                clusters[-1].append(t)
        if not clusters:
            out.append((i, 0.0))
            continue
        out.append((i, clusters[0][0] - 1.0))
        out += [(i, 0.5 * (a[-1] + b[0])) for a, b in zip(clusters[:-1], clusters[1:])]
        out.append((i, clusters[-1][-1] + 1.0))
    return out


def test_gap_signs_from_restrictions_match_sign_vector_many():
    # the parity reader's cells are the n-variate sign vectors at the gaps
    for seed in range(3):
        lines = unit_disk_lines(seed)
        pvec = to_polys(random_point(4, seed), 2)
        assert sum(p.degree() for p in pvec) == 7
        A, U = cells.line_frames(lines)
        rs = [cells.line_restriction_roots(A, U, p) for p in pvec]
        assert not any(r.degenerate.any() for r in rs)
        gaps = merged_gap_points(rs, len(lines))
        owners = np.array([i for i, _ in gaps])
        ts = np.array([t for _, t in gaps])
        want, boundary = sign_vector_many(pvec, A[owners] + ts[:, None] * U[owners])
        assert not boundary.any()  # every gap point is clear of the zero sets
        got = set(zip(*(a.tolist() for a in cells._line_cells(rs))))
        assert got == set(zip(owners.tolist(), want.tolist()))


def test_line_restriction_rows_match_restrict_to_line_batch():
    rng = np.random.default_rng(12)
    lines = [random_line(rng, 2) for _ in range(30)] + [line((0.0, 0.0), (0.0, 1.0))]
    A, U = cells.line_frames(lines)
    for p in (X, random_unit_poly(rng, 2, 3)):
        r = cells.line_restriction_roots(A, U, p)
        C = restrict_to_line_batch(p, A, U)
        C[r.degenerate] = 0.0
        roots = isolate_rows(C)
        assert np.array_equal(r.roots, np.concatenate(roots))
        assert r.owners.tolist() == [i for i, ri in enumerate(roots) for _ in ri]
    # the y-axis lies inside Z(x)
    assert cells.line_restriction_roots(A, U, X).degenerate.tolist() == [False] * 30 + [True]


@settings(max_examples=40)
@given(st.integers(2, 3), st.integers(1, 6), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_frame_column_equals_uncached_restriction(n, s, m, seed):
    # one frame serves a random tuple, then a second one on the same tensors:
    # each column's restriction equals the uncached one field for field, bit for bit
    rng = np.random.default_rng(seed)
    lines = [random_line(rng, n) for _ in range(m)]
    frame = cells.CountFrame(lines, SamplingConfig(), 0, exact_lines=True)
    for x in (random_point(s, (seed, 0)), random_point(s, (seed, 1))):
        for p in to_polys(x, n):
            got = frame.column(p)[0]
            want = cells.line_restriction_roots(*cells.line_frames(lines), p)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_frame_builds_each_tensor_once(monkeypatch):
    # 50 proposals over the six blocks of s = 6 build one tensor per distinct degree
    built = []
    real = cells.line_restriction_tensor
    monkeypatch.setattr(
        cells, "line_restriction_tensor", lambda b, A, U: built.append(b.D) or real(b, A, U)
    )
    frame = cells.CountFrame(unit_disk_lines(40), SamplingConfig(), 0, exact_lines=True)
    rng = np.random.default_rng(6)
    degs = degree_schedule(2, 6)
    for _ in range(50):
        frame.column(random_unit_poly(rng, 2, degs[rng.integers(6)]))
    assert sorted(built) == sorted(set(degs)) == sorted(b.D for b in frame.tensors)


def test_near_zero_restrictions_read_by_parity():
    xaxis = line((0.0, 0.0), (1.0, 0.0))
    # (x-1)^2 + 2e-11 has no real root, and at x = 1 it is 2e-11 above zero
    near = from_terms(2, {(2, 0): 1.0, (1, 0): -2.0, (0, 0): 1.0 + 2e-11})
    r = cells.line_restriction_roots(*cells.line_frames([xaxis]), near)
    assert len(r.roots) == 0 and r.start.tolist() == [False]
    assert line_cell_sets([xaxis], [X, near])[0] == {(0, 0), (1, 0)}
    # y + 5e-12 is not degenerate along the x-axis: its constant restriction is positive
    tiny = from_terms(2, {(0, 1): 1.0, (0, 0): 5e-12})
    assert line_cell_sets([xaxis], [X, tiny])[0] == {(0, 0), (1, 0)}


def test_tangent_line_through_the_fallback():
    xaxis = line((0.0, 0.0), (1.0, 0.0))
    # along the x-axis P1 is (t-1)^2 (t+2): certification rejects the row, and
    # the exact fallback returns the double root twice, which flips no bit
    p1 = from_terms(2, {(3, 0): 1.0, (1, 0): -3.0, (0, 0): 2.0, (0, 1): -1.0})
    p2 = from_terms(2, {(1, 0): 1.0, (0, 0): -0.5})
    C = restrict_to_line_batch(p1, *cells.line_frames([xaxis]))
    assert cells._certified_roots(C[:, ::-1])[0].tolist() == [True]
    assert line_cell_sets([xaxis], [p1, p2])[0] == {(0, 0), (0, 1), (1, 1)}


def fan_tuple(degs, center, rng):
    """P_j the product of degs[j] random lines through center, expanded in floats."""
    pvec = []
    for d in degs:
        terms = {(0, 0): 1.0}
        for angle in rng.uniform(0.0, np.pi, size=d):
            a, b = np.cos(angle), np.sin(angle)
            factor = {(1, 0): a, (0, 1): b, (0, 0): -(a * center[0] + b * center[1])}
            prod = {}
            for (e1, f1), c1 in terms.items():
                for (e2, f2), c2 in factor.items():
                    key = (e1 + e2, f1 + f2)
                    prod[key] = prod.get(key, 0.0) + c1 * c2
            terms = prod
        pvec.append(from_terms(2, terms))
    return pvec


@pytest.mark.parametrize("seed", range(3))
def test_fan_tuples_count_within_the_line_bound(seed):
    # every P_j vanishes to order D_j at (0.1, 0.2), so lines passing near it
    # see many tiny values and clustered roots
    lines = unit_disk_lines(40)
    degs = degree_schedule(2, 6)
    pvec = fan_tuple(degs, (0.1, 0.2), np.random.default_rng(seed))
    table = counts(lines, pvec, SamplingConfig(R=4.0, seed=0), exact_lines=True).table
    assert table.max() > 0
    sets = line_cell_sets(lines, pvec)
    assert max(len(ws) for ws in sets) <= sum(degs) + 1
    ts = np.linspace(-6.0, 6.0, 1001)
    for g, ws in zip(lines, sets):
        X_ = g.sampler.point + ts[:, None] * g.sampler.direction
        idx, boundary = sign_vector_many(pvec, X_)
        assert {index_w(int(i), len(pvec)) for i in idx[~boundary]} <= ws


def test_partition_property_random_points():
    rng = np.random.default_rng(9)
    pvec = [random_unit_poly(rng, 2, d) for d in (1, 2)]
    pts = rng.normal(size=(200, 2))
    idx, boundary = sign_vector_many(pvec, pts)
    assert not boundary.any()  # random points miss the zero sets
    assert idx.shape == (200,) and idx.min() >= 0 and idx.max() < 4  # one cell each


def test_exact_enumeration_rejects_non_lines():
    from polypart.varieties import UnsupportedVarietyError

    with pytest.raises(UnsupportedVarietyError):
        line_cell_sets([circle((0.0, 0.0), 1.0)], [X])


def test_seeded_line_solve_pinned_table():
    from polypart.solver import SolveConfig, partition_varieties

    rng = np.random.default_rng(20)
    theta = rng.uniform(0, 2 * np.pi, size=200)
    rho = rng.uniform(-1.0, 1.0, size=200)
    Gamma = [
        line(r * np.array([-np.sin(t), np.cos(t)]), (np.cos(t), np.sin(t)))
        for t, r in zip(theta, rho)
    ]
    cfg = SolveConfig(
        s=4, n=2, restarts=1, iters=40, seed=3, sampling=SamplingConfig(R=4.0, seed=3)
    )
    rep = partition_varieties(Gamma, cfg)
    # recorded with the Sturm-bisection isolator before certified eigenvalue roots
    pinned = [77, 15, 117, 78, 100, 94, 128, 37, 15, 51, 72, 143, 85, 76, 141, 84]
    assert rep.counts.table.tolist() == pinned


def test_seeded_line_solve_bisects_no_row(exact_rows):
    # the pinned solve above, with every row that reaches the exact fallback counted
    test_seeded_line_solve_pinned_table()
    assert sum(exact_rows) == 0


# dyadic shifts k / 2^j up to 2^40 in magnitude
DYADIC_SHIFTS = st.builds(lambda k, j: k * 2.0**-j, st.integers(-(2**40), 2**40), st.integers(0, 12))


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), DYADIC_SHIFTS),
        min_size=1,
        max_size=6,
    )
)
def test_axis_line_counts_do_not_depend_on_its_anchor(draws):
    # a line along e_i given at f + t e_i keeps f's foot point bit for bit
    # (+ 0.0 turns a drawn -0.0 into 0.0), so it enters the same cells
    given, shifted = [], []
    for i, x, y, t in draws:
        u, f = np.eye(2)[i], np.array([x, y]) + 0.0
        given.append(line(f, u))
        shifted.append(line(f + t * u, u))
        assert shifted[-1].sampler.point.tobytes() == given[-1].sampler.point.tobytes()
    sampling = SamplingConfig(R=4.0, seed=0)
    for s in (4, 6):
        pvec = to_polys(random_point(s, (5, s)), 2)
        assert line_cell_sets(shifted, pvec) == line_cell_sets(given, pvec)
        want = counts(given, pvec, sampling, exact_lines=True).table
        assert np.array_equal(counts(shifted, pvec, sampling, exact_lines=True).table, want)


@settings(max_examples=200)
@given(st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), DYADIC_SHIFTS)
def test_line_stores_its_foot_point_within_rounding(theta, x, y, t):
    # the stored point is the exact projection a - (a.u)/(u.u) u of the given
    # point a, within 2^-48 |a|: a few roundings of a product of size |a|
    u = (math.cos(theta), math.sin(theta))
    a = np.array([x, y]) + t * np.array(u)
    au = sum(Fraction(c) * Fraction(d) for c, d in zip(a, u))
    uu = sum(Fraction(d) ** 2 for d in u)
    foot = [Fraction(c) - au / uu * Fraction(d) for c, d in zip(a, u)]
    got = line(a, u).sampler.point
    err = max(abs(Fraction(g) - f) for g, f in zip(got, foot))
    assert err <= Fraction(2) ** -48 * max(1.0, float(np.linalg.norm(a)))


@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_shifted_line_solve_reports_the_exact_counts(shift):
    # the family of the `lines` benchmark's first instance at seed 0, every
    # line given `shift` along itself: the solve must report the exact table
    # of its tuple on the lines as drawn, whose points lie in the unit disk
    from polypart.solver import SolveConfig, partition_varieties

    Gamma = unit_disk_lines([0, 0, 0])
    far = [line(g.sampler.point + shift * g.sampler.direction, g.sampler.direction) for g in Gamma]
    sampling = SamplingConfig(R=4.0, seed=0)
    cfg = SolveConfig(s=4, n=2, restarts=1, iters=200, seed=0, sampling=sampling)
    rep = partition_varieties(far, cfg)
    want = counts(Gamma, rep.pvec, sampling, exact_lines=True).table
    assert np.array_equal(rep.counts.table, want)


def test_sampled_counts_pinned_tables():
    # recorded from the per-variety sampled counts that the count frame
    # replaced: a mixed R^2 family (lines, circles, 0-planes) with lines
    # counted exactly and sampled, and 2-planes in R^3; at density-default
    # sample sizes, and at 4 points per variety, where every table depends
    # on each variety's own seed substream
    rng = np.random.default_rng(31)
    Gamma = []
    for _ in range(6):
        t = rng.uniform(0.0, 2 * np.pi)
        Gamma.append(line(rng.uniform(-1.0, 1.0, size=2), (np.cos(t), np.sin(t))))
        Gamma.append(circle(rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.2, 1.0)))
        Gamma.append(kplane(rng.uniform(-1.5, 1.5, size=2), np.zeros((0, 2))))
    pvec = to_polys(random_point(3, seed=43), 2)
    rng = np.random.default_rng(34)
    planes = [
        kplane(rng.uniform(-1.0, 1.0, size=3), np.linalg.qr(rng.normal(size=(3, 2)))[0].T)
        for _ in range(5)
    ]
    pvec3 = to_polys(random_point(3, seed=39), 3)
    pinned = {
        None: ([7, 6, 13, 6, 3, 3, 1, 6], [7, 5, 13, 6, 1, 3, 1, 6], [3, 5, 5, 5, 3, 4, 3, 1]),
        4: ([6, 6, 13, 4, 3, 2, 1, 6], [6, 5, 12, 4, 1, 0, 1, 6], [0, 2, 5, 2, 1, 2, 0, 0]),
    }
    for count, (exact, sampled, in_r3) in pinned.items():
        sampling = SamplingConfig(R=2.0, count=count, seed=33)
        assert counts(Gamma, pvec, sampling, exact_lines=True).table.tolist() == exact
        assert counts(Gamma, pvec, sampling, exact_lines=False).table.tolist() == sampled
        sampling = SamplingConfig(R=2.0, count=count, seed=36)
        assert counts(planes, pvec3, sampling).table.tolist() == in_r3


def test_pack_signs_bits_and_interior():
    # one column per polynomial, one entry per point
    cols = [
        np.array([1.0, -1.0, 2.0, 0.0]),
        np.array([-2.0, -1.0, 1e-12, 1.0]),
        np.array([3.0, 0.5, -4.0, 1.0]),
    ]
    idx, interior = cells.pack_signs(cols, np.array([1e-9, 1e-9, 1e-9]))
    assert idx.tolist() == [w_index((0, 1, 0)), w_index((1, 1, 0)), w_index((0, 0, 1)), 0]
    assert interior.tolist() == [True, True, False, False]
    idx0, interior0 = cells.pack_signs(cols, np.zeros(3))
    assert np.array_equal(idx0, idx) and interior0.tolist() == [True, True, True, False]
    idx, interior = cells.pack_signs([np.zeros(0), np.zeros(0)], np.zeros(2))
    assert idx.shape == interior.shape == (0,)


_tied_root = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@settings(max_examples=100)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), _tied_root), max_size=12), max_size=5))
@example([])
@example([[], []])
@example([[(0, 0.0), (1, -0.0)], [(0, -0.0), (1, 0.0)], [(0, 0.0)]])
def test_owner_value_order_is_lexsort(blocks):
    # each block as isolate_real_roots_flat returns its roots: grouped by
    # line and ascending within a line; values tie exactly across blocks
    runs = [sorted(b) for b in blocks]
    owners = np.array([o for run in runs for o, _ in run], dtype=np.int64)
    vals = np.array([v for run in runs for _, v in run], dtype=np.float64)
    got = cells._owner_value_order(owners, vals)
    assert np.array_equal(got, np.lexsort((vals, owners)))


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 5), _tied_root), max_size=30),
    st.sampled_from([2**16 - 6, 2**16, 2**31, 2**32]),
)
def test_owner_value_order_is_lexsort_on_wide_owner_ids(pairs, base):
    # ids from 2^16 up are no longer uint16: the uint32 and uint64 casts
    owners = np.array([base + o for o, _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs], dtype=np.float64)
    got = cells._owner_value_order(owners, vals)
    assert np.array_equal(got, np.lexsort((vals, owners)))


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**20), max_size=60))
def test_distinct_is_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    got = cells._distinct(keys)
    assert got.dtype == np.int64 and np.array_equal(got, np.unique(keys))


def cell_table_or_error(fn, restrictions):
    try:
        return fn(restrictions)
    except RootIsolationError:
        return "RootIsolationError"


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    s=st.integers(1, 6),
    inside=st.booleans(),
    rootless=st.booleans(),
)
@example(seed=0, s=2, inside=True, rootless=True)
def test_cell_table_matches_cell_sets(seed, s, inside, rootless):
    rng = np.random.default_rng(seed)
    # the last two lines are x = 0, inside Z(x), and x = 2, where x has no root
    lines = [random_line(rng, 2) for _ in range(25)]
    lines += [line((0.0, 0.3), (0.0, 1.0)), line((2.0, 0.0), (0.0, 1.0))]
    pvec = [random_unit_poly(rng, 2, int(d)) for d in rng.integers(1, 4, size=s)]
    if inside:
        pvec[0] = X
    if rootless:  # 1 + x^2 + y^2 has no root on any line
        pvec[-1] = from_terms(2, {(0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0})
    A, U = cells.line_frames(lines)
    rs = [cells.line_restriction_roots(A, U, p) for p in pvec]
    if pvec[0] is X:
        assert rs[0].degenerate[-2]

    def table_from_sets(_restrictions):
        # line_cell_sets restricts afresh, to the same bits as rs
        table = np.zeros(2**s, dtype=np.int64)
        for ws in line_cell_sets(lines, pvec):
            for w in ws:
                table[w_index(w)] += 1
        return table

    want = cell_table_or_error(table_from_sets, rs)
    got = cell_table_or_error(cells.cell_table_from_roots, rs)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)
