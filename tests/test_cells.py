import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polypart import cells
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
from oracles import from_terms, restrict_to_line
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


def test_isolation_multiple_roots():
    # (t-1)^2 (t+2): distinct roots {-2, 1}, one with even multiplicity
    asc = np.array([2.0, -3.0, 0.0, 1.0])
    (roots,) = isolate_rows([asc])
    assert np.allclose(roots, [-2.0, 1.0], atol=1e-9)


def cauchy_bound(asc):
    c = np.trim_zeros(np.asarray(asc, dtype=float)[::-1], "f")
    return 1.0 + np.abs(c[1:]).max() / abs(c[0])


def test_isolation_batched_agrees_with_bisection():
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
    expected = cells._isolate_by_bisection(rows)
    got_list = isolate_rows(rows)
    got_array = isolate_rows(padded)
    for asc, want, a, b in zip(rows, expected, got_list, got_array):
        assert np.array_equal(a, b)
        assert len(a) == len(want)
        if len(a):
            assert np.abs(a - want).max() <= 1e-12 * max(1.0, cauchy_bound(asc))


def isolation_outcome(fn, rows):
    try:
        return [r.tolist() for r in fn(rows)]
    except RootIsolationError:
        return "RootIsolationError"


@pytest.mark.parametrize(
    "asc",
    [
        np.array([1.0 + 1e-10, -(2.0 + 1e-10), 1.0]),  # (t-1)(t-1-1e-10): clustered
        np.array([2.0, -3.0, 0.0, 1.0]),  # (t-1)^2 (t+2): even multiplicity
        np.array([-1.0, 3.0, 3.0, 1.0]),  # (t+1)^3 - 2: the chain drops a degree
    ],
)
def test_isolation_uncertified_rows_take_bisection(asc):
    bad, rows, roots = cells._certified_roots(asc[None, ::-1])
    assert bad.tolist() == [True] and len(rows) == len(roots) == 0
    assert isolation_outcome(isolate_rows, [asc]) == isolation_outcome(
        cells._isolate_by_bisection, [asc]
    )


def _endpoint_on_root(h):
    r = 1.0 - h
    while r + h != 1.0:
        r = np.nextafter(r, 2.0 if r + h < 1.0 else 0.0)
    return r


@pytest.mark.parametrize(
    "cands",
    [
        [-1.0 + 0.5j, 1.0],  # a real root is missing: the Sturm count is 2
        [-1.0, 1.0 + 1e-6],  # a bracket holds no root
        [1.0, 1.0 + 1e-13],  # overlapping brackets around one root
        [-1.0, _endpoint_on_root(1e-12)],  # a bracket ends on the root t = 1
    ],
)
def test_certification_rejects_wrong_candidates(monkeypatch, cands):
    P = np.array([[1.0, 0.0, -1.0]])  # t^2 - 1, Cauchy bound 2, h = 1e-12
    bad, rows, roots = cells._certified_roots(P)
    assert not bad.any() and rows.tolist() == [0, 0] and roots.tolist() == [-1.0, 1.0]
    monkeypatch.setattr(np.linalg, "eigvals", lambda comp: np.array([cands]))
    bad, rows, roots = cells._certified_roots(P)
    assert bad.tolist() == [True] and len(rows) == len(roots) == 0


def test_isolation_errors_still_raise(monkeypatch):
    monkeypatch.setattr(cells, "_REFINE_MAX_ITERS", 1)
    asc = np.array([2.0, -3.0, 0.0, 1.0])
    with pytest.raises(RootIsolationError):
        cells._isolate_by_bisection([asc])
    with pytest.raises(RootIsolationError):
        isolate_rows([np.array([1.0, -1.0]), asc])


def test_isolation_silences_overflow_on_rejected_rows():
    # 1 + 1e-300 t + t^3: its remainder sequence divides by 1e-300 and
    # overflows on a row that certification rejects and bisection isolates
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
    # bisection returns the double root as 1.00000001, where P1 keeps its sign
    p1 = from_terms(2, {(3, 0): 1.0, (1, 0): -3.0, (0, 0): 2.0, (0, 1): -1.0})
    p2 = from_terms(2, {(1, 0): 1.0, (0, 0): -0.5})
    C = restrict_to_line_batch(p1, *cells.line_frames([xaxis]))
    assert cells._certified_roots(C[:, ::-1])[0].tolist() == [True]
    assert line_cell_sets([xaxis], [p1, p2])[0] == {(0, 0), (0, 1), (1, 1)}
    # a reading on an exact zero raises: t^3 - t at 0, between the roots -1 and 1
    with pytest.raises(RootIsolationError, match="ambiguous sign reading on line 0"):
        cells._sign_changes(np.array([[0.0, -1.0, 0.0, 1.0]]), np.zeros(2, int), np.array([-1.0, 1.0]))


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
