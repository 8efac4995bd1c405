import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polypart import cells as cells_mod
from polypart import mollifier as moll_mod
from polypart.cells import CellCounts, SamplingConfig, counts, point_counts
from polypart.mollifier import family_clouds, mollified_table, schedule
from polypart.polyalg import MonomialBasis, degree_schedule, monomial_basis
from polypart.solver import (
    SelfCheckError,
    SolveConfig,
    _anneal,
    _certified_zero,
    _step_block,
    partition_points,
    partition_varieties,
)
from polypart.spectrum import spectral_power
from polypart.sphereprod import XsPoint, block_poly, block_size, flip, random_point, to_polys
from polypart.varieties import circle, kplane, line


def crossing_lines():
    return [line((0.0, 1.0), (1.0, 0.0)), line((1.0, 0.0), (0.0, 1.0))]


def discrete_objective(Gamma, x, sampling, n=2):
    """Spectral power of the discrete counts at x, lines counted exactly."""
    return spectral_power(counts(Gamma, to_polys(x, n), sampling, exact_lines=True).table)


def test_objective_discrete_quadrant_value():
    # the quadrant configuration has counts (2,1,1,0) whose spectral power is 8
    x = XsPoint((np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])))  # P1 = x1, P2 = x2
    val = discrete_objective(crossing_lines(), x, SamplingConfig(R=2.0, count=512, seed=0))
    assert val == 8.0


def test_objective_discrete_empty_family():
    x = random_point(2, seed=0)
    assert discrete_objective([], x, SamplingConfig(R=2.0)) == 0.0


def test_objective_flip_invariance():
    Gamma = crossing_lines()
    cfg = SamplingConfig(R=3.0, count=256, seed=1)
    for seed in range(10):
        x = random_point(2, seed=seed)
        base = discrete_objective(Gamma, x, cfg)
        for j in (1, 2):
            assert discrete_objective(Gamma, flip(x, j), cfg) == base
        assert discrete_objective(Gamma, flip(flip(x, 1), 2), cfg) == base


def test_objective_smooth_empty_and_flip():
    # the smooth objective is the spectral power of the mollified count table
    bases = [MonomialBasis(2, D) for D in degree_schedule(2, 2)]
    mcfg = schedule(2.0**-6, bases, mc_count=1024, seed=2)

    def objective(Gamma, x):
        return spectral_power(mollified_table(Gamma, to_polys(x, 2), mcfg))

    assert objective([], random_point(2, seed=3)) == 0.0
    Gamma = crossing_lines()
    for seed in range(3):
        x = random_point(2, seed=seed)
        base = objective(Gamma, x)
        for j in (1, 2):
            assert objective(Gamma, flip(x, j)) == pytest.approx(base, abs=1e-9)


def coarse_grid_min(Gamma, sampling):
    """Exhaustive search over a coarse grid on X_2 = S^1 x S^2."""
    best = np.inf
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    ks = np.arange(40)
    zs = 1.0 - 2.0 * (ks + 0.5) / 40
    rs = np.sqrt(1.0 - zs**2)
    sphere = np.stack([rs * np.cos(golden * ks), rs * np.sin(golden * ks), zs], axis=1)
    for a in angles:
        b1 = np.array([np.cos(a), np.sin(a)])
        for v in sphere:
            x = XsPoint((b1, v))
            best = min(best, discrete_objective(Gamma, x, sampling))
    return best


def test_partition_two_crossing_lines():
    Gamma = crossing_lines()
    sampling = SamplingConfig(R=4.0, seed=0)
    cfg = SolveConfig(s=2, n=2, restarts=3, iters=250, seed=0, sampling=sampling)
    rep = partition_varieties(Gamma, cfg)
    assert rep.max_count <= 2
    assert rep.objective <= coarse_grid_min(Gamma, sampling)
    # total entries respect the per-line cell bound
    assert rep.counts.table.sum() <= len(Gamma) * (rep.meta["D"] + 1)
    # report is self-consistent: recomputing counts reproduces the table
    again = counts(Gamma, rep.pvec, sampling, exact_lines=True)
    assert again == rep.counts


def test_partition_single_line_bound():
    Gamma = [line((0.2, -0.1), (0.8, 0.6))]
    cfg = SolveConfig(s=2, n=2, restarts=2, iters=60, seed=1, sampling=SamplingConfig(R=4.0))
    rep = partition_varieties(Gamma, cfg)
    D = rep.meta["D"]
    assert rep.max_count <= D + 1
    assert rep.counts.table.sum() <= len(Gamma) * (D + 1)


def test_partition_seeded_rerun_identical():
    Gamma = crossing_lines()
    cfg = SolveConfig(s=2, n=2, restarts=2, iters=80, seed=7, sampling=SamplingConfig(R=4.0))
    a = partition_varieties(Gamma, cfg)
    b = partition_varieties(Gamma, cfg)
    assert a.objective == b.objective
    assert a.counts == b.counts
    assert a.trace == b.trace
    for pa, pb in zip(a.pvec, b.pvec):
        assert np.array_equal(pa.coeffs, pb.coeffs)


def test_partition_trace_never_increases():
    Gamma = crossing_lines()
    cfg = SolveConfig(s=2, n=2, restarts=1, iters=150, seed=3, sampling=SamplingConfig(R=4.0))
    rep = partition_varieties(Gamma, cfg)
    objs = [v for _, v in rep.trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_partition_smoothed_objective_runs(monkeypatch):
    monkeypatch.setattr(moll_mod, "DELTA_GRID", (2.0**-3, 2.0**-5))
    Gamma = [circle((0.3, 0.0), 0.5), circle((-0.3, 0.1), 0.4)]
    cfg = SolveConfig(
        s=2,
        n=2,
        restarts=1,
        iters=40,
        seed=4,
        objective="smooth",
        mc_count=512,
        sampling=SamplingConfig(R=3.0, count=512),
    )
    rep = partition_varieties(Gamma, cfg)
    again = counts(Gamma, rep.pvec, cfg.sampling)
    assert again == rep.counts
    assert rep.meta["objective_kind"] == "smooth"


def test_partition_varieties_validation():
    with pytest.raises(ValueError):
        partition_varieties([], SolveConfig(s=2, n=2))
    mixed = [line((0.0, 0.0), (1.0, 0.0)), circle((0.0, 0.0, 0.0), 1.0, np.eye(3)[:2])]
    with pytest.raises(ValueError):
        partition_varieties(mixed, SolveConfig(s=2, n=2))
    with pytest.raises(ValueError):
        SolveConfig(s=2, n=2, restarts=0)
    with pytest.raises(ValueError):
        SolveConfig(s=2, n=2, objective="magic")


@pytest.mark.parametrize("mc_count", [0, -4])
def test_solve_config_rejects_mc_count_below_one(mc_count):
    with pytest.raises(ValueError, match="mc_count"):
        SolveConfig(s=2, n=2, mc_count=mc_count)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("iters", -3, "iters >= 0"),
        ("s", 0, "s >= 1"),
        ("n", 0, "n >= 1"),
        ("seed", -1, "seed >= 0"),
    ],
)
def test_solve_config_rejects_what_the_cli_rejects(field, value, message):
    # each used to be accepted here and fail late, or run a different solve
    # than asked (a negative iters ran 0 discrete but 20 smooth iterations)
    with pytest.raises(ValueError, match=message):
        SolveConfig(**{"s": 2, "n": 2, field: value})


def drive_frame(frame, n, x, rng, steps, check):
    """Seeded swap/restore sequence over one frame column per block, as the
    annealer keeps them; check(point, table) after every step, for the
    candidate right after its column goes in and for the kept point after. A
    kept candidate needs no call: its column is already in place."""
    cols = [frame.column(p) for p in to_polys(x, n)]
    check(x, frame.table(cols))
    for _ in range(steps):
        j = int(rng.integers(1, x.s + 1))
        cand = _step_block(x, j, rng.normal(size=block_size(j)), 0.5)
        old = cols[j - 1]
        cols[j - 1] = frame.column(block_poly(cand, j, n))
        check(cand, frame.table(cols))
        if rng.random() < 0.5:
            x = cand
        else:
            cols[j - 1] = old
        check(x, frame.table(cols))


def test_smooth_evaluator_matches_from_scratch():
    # unequal clouds: the circle on the sphere |x| = R of a level loses about
    # half its tube to the clipping at B_R, and the one at (40, 0) is empty
    Gamma = [
        circle((0.3, 0.0), 0.5),
        line((0.1, -0.2), (0.6, 0.8)),
        circle((0.0, 0.0), 8.0),
        circle((0.0, 0.0), 11.0),
        circle((-0.4, 0.2), 0.9),
        circle((40.0, 0.0), 0.5),
    ]
    s, n = 3, 2
    bases = [monomial_basis(n, D) for D in degree_schedule(n, s)]
    rng = np.random.default_rng(5)
    for level, delta in enumerate((2.0**-7, 2.0**-10)):  # R = 8, 11
        mcfg = schedule(delta, bases, mc_count=300, seed=(9, level))
        clouds = family_clouds(Gamma, mcfg)
        sizes = [len(c.points) for c in clouds]
        assert sizes[-1] == 0 and len(set(sizes)) >= 3
        frame = moll_mod.LevelFrame(Gamma, mcfg, max(bases, key=len))
        seen = []

        def check(y, table):
            # one mollified path: the frame's table is mollified_table's
            want = mollified_table(Gamma, to_polys(y, n), mcfg, clouds)
            assert np.array_equal(table, want)
            got = spectral_power(table)
            assert got == spectral_power(want)
            seen.append(got)

        drive_frame(frame, n, random_point(s, seed=level), rng, 30, check)
        assert np.count_nonzero(seen) > len(seen) // 2


def mixed_family(seed, n_lines, n_circles, n_points):
    """Lines, circles and 0-planes in R^2 around the unit disk, drawn in rounds."""
    rng = np.random.default_rng(seed)
    Gamma = []
    for k in range(max(n_lines, n_circles, n_points)):
        if k < n_lines:
            t = rng.uniform(0.0, 2 * np.pi)
            Gamma.append(line(rng.uniform(-1.0, 1.0, size=2), (np.cos(t), np.sin(t))))
        if k < n_circles:
            Gamma.append(circle(rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.2, 1.0)))
        if k < n_points:
            Gamma.append(kplane(rng.uniform(-1.5, 1.5, size=2), np.zeros((0, 2))))
    return Gamma, rng


@settings(max_examples=6)
@given(
    seed=st.integers(0, 2**16),
    s=st.integers(1, 3),
    mix=st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 4)).filter(any),
)
@example(seed=11, s=3, mix=(40, 0, 0))
@example(seed=13, s=3, mix=(6, 6, 6))
def test_discrete_evaluator_matches_counts(seed, s, mix):
    # lines are counted through their restrictions, circles and 0-planes
    # through fixed samples; the one table must match cells.counts on all kinds
    Gamma, rng = mixed_family(seed, *mix)
    n = 2
    sampling = SamplingConfig(R=2.0, seed=seed)
    frame = cells_mod.CountFrame(Gamma, sampling, sum(degree_schedule(n, s)), exact_lines=True)

    def check(y, table):
        want = counts(Gamma, to_polys(y, n), sampling, exact_lines=True).table
        assert np.array_equal(table, want)

    drive_frame(frame, n, random_point(s, seed=seed + 1), rng, 20, check)


def test_discrete_evaluator_matches_counts_on_sampled_varieties():
    # circles and 0-planes are counted through fixed samples, lines through
    # their restrictions; the one table must match cells.counts on all kinds
    Gamma, rng = mixed_family(13, 6, 6, 6)
    s, n = 3, 2
    sampling = SamplingConfig(R=2.0, seed=4)
    frame = cells_mod.CountFrame(Gamma, sampling, sum(degree_schedule(n, s)), exact_lines=True)

    def check(y, table):
        want = counts(Gamma, to_polys(y, n), sampling, exact_lines=True).table
        assert np.array_equal(table, want)

    drive_frame(frame, n, random_point(s, seed=3), rng, 20, check)


def test_anneal_keeps_its_columns_in_step_with_the_point():
    # after a seeded run with rejections, the columns _anneal kept are those
    # of the point it returns: each rejected proposal put its old column back
    Gamma, _ = mixed_family(21, 8, 3, 3)
    s, n = 3, 2
    sampling = SamplingConfig(R=2.0, seed=6)
    frame = cells_mod.CountFrame(Gamma, sampling, sum(degree_schedule(n, s)), exact_lines=True)
    x = random_point(s, seed=7)
    cols = [frame.column(p) for p in to_polys(x, n)]
    obj = spectral_power(frame.table(cols))
    trace, iters = [], 40
    y = _anneal(frame, cols, x, obj, n, iters, np.random.default_rng(8), trace, 0)
    assert trace and trace[-1][1] > 0.0  # no early stop at 0
    assert len(trace) < iters  # so some proposals were rejected
    table = frame.table(cols)
    assert np.array_equal(table, frame.table([frame.column(p) for p in to_polys(y, n)]))
    assert np.array_equal(table, counts(Gamma, to_polys(y, n), sampling, exact_lines=True).table)


def test_levels_built_once_per_solve(monkeypatch):
    # every restart anneals through one build of each delta level, so the
    # tube clouds are sampled by one pass per level over all circles, not
    # once per restart; each restart's final tuple is counted once, the best
    # one not again
    calls = []
    real = moll_mod.tube_sample_many

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(moll_mod, "tube_sample_many", counted)
    count_calls = []
    real_counts = cells_mod.counts

    def counted_counts(*args, **kwargs):
        count_calls.append(args[1])
        return real_counts(*args, **kwargs)

    monkeypatch.setattr(cells_mod, "counts", counted_counts)
    monkeypatch.setattr(moll_mod, "DELTA_GRID", (2.0**-2, 2.0**-3, 2.0**-4))
    Gamma = [
        circle((0.3, 0.0), 0.5),
        circle((-0.3, 0.1), 0.4),
        circle((0.1, -0.4), 0.7),
        circle((-0.2, 0.5), 0.3),
    ]
    cfg = SolveConfig(
        s=2,
        n=2,
        restarts=3,
        iters=60,
        seed=2,
        objective="smooth",
        mc_count=256,
        sampling=SamplingConfig(R=2.0, count=128),
    )
    rep = partition_varieties(Gamma, cfg)
    assert calls == [Gamma] * 3  # one build per restart would make 9
    assert len(count_calls) == cfg.restarts  # counting the best again made 4
    # recorded when each restart built its own levels: the same solve
    assert rep.counts.table.tolist() == [4, 4, 3, 3]
    assert rep.trace == [
        (-1, 0.0),
        (0, 0.0),
        (20, 11.0),
        (25, 3.0),
        (26, 2.7147157203925163),
        (34, 2.683318440359875),
        (37, 2.670217404935684),
        (52, 0.01600189997833571),
        (53, 0.0),
    ]


def random_family(rng, n, size):
    """Lines, circles and points through the unit ball of R^n."""
    out = []
    for kind in rng.integers(0, 3, size=size):
        p = rng.uniform(-1.0, 1.0, size=n)
        if kind == 0:
            d = rng.normal(size=n)
            out.append(line(p, d / np.linalg.norm(d)))
        elif kind == 1:
            frame = np.linalg.qr(rng.normal(size=(n, 2)))[0].T if n > 2 else None
            out.append(circle(p, rng.uniform(0.2, 1.0), frame))
        else:
            out.append(kplane(p, np.zeros((0, n))))
    return out


@settings(max_examples=30)
@given(
    n=st.sampled_from([2, 3]),
    s=st.integers(1, 4),
    size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_levels_score_exactly_zero(n, s, size, seed):
    # at a level the certificate marks, every unit tuple's mollified table is
    # all zero, so the sampled frame the skip replaces scores every step 0.0,
    # as the skip's frame without clouds does
    rng = np.random.default_rng(seed)
    Gamma = random_family(rng, n, size)
    bases = [monomial_basis(n, D) for D in degree_schedule(n, s)]
    for level, delta in enumerate(moll_mod.DELTA_GRID):
        mcfg = schedule(delta, bases, mc_count=64, seed=(seed, level))
        if not _certified_zero(mcfg, bases):
            continue
        basis = max(bases, key=len)
        frame = moll_mod.LevelFrame(Gamma, mcfg, basis)
        empty = moll_mod.LevelFrame(Gamma, mcfg, basis, clouds=[])
        x = random_point(s, (seed, level))
        cols = [frame.column(p) for p in to_polys(x, n)]
        assert spectral_power(frame.table(cols)) == 0.0 and not frame.table(cols).any()
        for j in range(1, s + 1):
            for h in (0.5, 2.0):
                cand = _step_block(x, j, rng.normal(size=block_size(j)), h)
                old = cols[j - 1]
                cols[j - 1] = frame.column(block_poly(cand, j, n))
                table = frame.table(cols)
                assert spectral_power(table) == 0.0 and not table.any()
                skip = empty.table([empty.column(p) for p in to_polys(cand, n)])
                assert skip.dtype == table.dtype and np.array_equal(skip, table)
                cols[j - 1] = old


def test_default_grid_skips_the_certified_levels(monkeypatch):
    # at s = 3 the certificate marks the first 3 of the 12 default levels, so
    # 9 are sampled; the table and trace were recorded when all 12 were
    calls = []
    real = moll_mod.tube_sample_many

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(moll_mod, "tube_sample_many", counted)
    Gamma = [
        circle((0.3, 0.0), 0.5),
        circle((-0.3, 0.1), 0.4),
        circle((0.1, -0.4), 0.7),
        circle((-0.2, 0.5), 0.3),
        circle((0.5, 0.4), 0.6),
    ]
    cfg = SolveConfig(
        s=3,
        n=2,
        restarts=2,
        iters=240,
        seed=4,
        objective="smooth",
        mc_count=256,
        sampling=SamplingConfig(R=2.0, count=128),
    )
    rep = partition_varieties(Gamma, cfg)
    assert calls == list(moll_mod.DELTA_GRID[3:])
    assert rep.meta["levels_skipped"] == [0.5, 0.25, 0.125]
    assert rep.counts.table.tolist() == [3, 2, 4, 0, 2, 3, 5, 3]
    assert rep.trace[:5] == [(-1, 0.0), (0, 0.0), (20, 0.0), (40, 0.0), (60, 0.0)]
    assert len(rep.trace) == 67
    digest = hashlib.sha256(repr(rep.trace).encode()).hexdigest()
    assert digest == "4ec92dc7ed03097578981e00f6197a87bd265790df19f2b7d5649f71fb56193d"
    discrete = SolveConfig(s=2, n=2, restarts=1, iters=10, seed=0)
    assert "levels_skipped" not in partition_varieties(crossing_lines(), discrete).meta


def test_line_restrictions_per_solve(monkeypatch):
    # every line restriction goes through the cells.restrict_to_line_batch
    # binding, which the benchmark's tracer wraps: s per restart's starting
    # point, one per proposal and s per restart's recount. The annealing
    # frame's calls share one factor cache; each recount's s calls share a
    # cache of their own, which neither that frame nor another recount sees
    from polypart import solver as solver_mod

    caches = []
    real = cells_mod.restrict_to_line_batch

    def counted(p, A, U, facs=None):
        caches.append(facs)
        return real(p, A, U, facs)

    monkeypatch.setattr(cells_mod, "restrict_to_line_batch", counted)
    steps = []
    real_step = solver_mod._step_block

    def counted_step(*args):
        steps.append(args[1])
        return real_step(*args)

    monkeypatch.setattr(solver_mod, "_step_block", counted_step)
    rng = np.random.default_rng(8)
    theta = rng.uniform(0.0, 2 * np.pi, size=40)
    Gamma = [line(rng.uniform(-1.0, 1.0, size=2), (np.cos(t), np.sin(t))) for t in theta]
    cfg = SolveConfig(s=3, n=2, restarts=2, iters=25, seed=5)
    partition_varieties(Gamma, cfg)
    assert len(steps) > 0
    recounts = cfg.restarts * cfg.s
    assert len(caches) == cfg.restarts * cfg.s + len(steps) + recounts
    annealed, rest = caches[:-recounts], caches[-recounts:]
    groups = [annealed] + [rest[i : i + cfg.s] for i in range(0, recounts, cfg.s)]
    for group in groups:
        assert isinstance(group[0], dict) and all(f is group[0] for f in group)
    assert len({id(group[0]) for group in groups}) == 1 + cfg.restarts


def test_partition_self_check_names_first_differing_cell(monkeypatch):
    scratch_counts = cells_mod.counts

    def off_by_one(*args, **kwargs):
        cc = scratch_counts(*args, **kwargs)
        table = cc.table.copy()
        table[2] += 1
        return CellCounts(cc.s, table)

    monkeypatch.setattr(cells_mod, "counts", off_by_one)
    cfg = SolveConfig(s=2, n=2, restarts=2, iters=20, seed=0)
    with pytest.raises(SelfCheckError, match=r"in cell \(0, 1\)$"):
        partition_varieties(crossing_lines(), cfg)


def test_partition_self_check_covers_every_restart(monkeypatch):
    # only the recounts of restarts the solve does not report are off, so the
    # check must look at every restart, not just the best
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2 * np.pi, size=12)
    Gamma = [line(rng.uniform(-1.0, 1.0, size=2), (np.cos(t), np.sin(t))) for t in theta]
    cfg = SolveConfig(s=2, n=2, restarts=3, iters=20, seed=1)
    best = partition_varieties(Gamma, cfg).pvec
    scratch_counts = cells_mod.counts
    corrupted = []

    def off_unless_best(Gamma, pvec, *args, **kwargs):
        cc = scratch_counts(Gamma, pvec, *args, **kwargs)
        if all(np.array_equal(p.coeffs, q.coeffs) for p, q in zip(pvec, best)):
            return cc
        corrupted.append(pvec)
        table = cc.table.copy()
        table[1] += 1
        return CellCounts(cc.s, table)

    monkeypatch.setattr(cells_mod, "counts", off_unless_best)
    with pytest.raises(SelfCheckError, match=r"in cell \(1, 0\)$"):
        partition_varieties(Gamma, cfg)
    assert corrupted


def test_partition_points_single_point():
    X = np.array([[0.3, 0.4]])
    cfg = SolveConfig(s=3, n=2, restarts=2, iters=100, seed=0)
    rep = partition_points(X, 3, cfg)
    assert rep.counts.table.sum() <= 1
    assert rep.max_count <= 1


def test_partition_points_symmetric_odd_polynomials():
    # a symmetric cloud admits exact bisection by any odd polynomial at step 1
    rng = np.random.default_rng(5)
    half = rng.normal(size=(100, 2))
    X = np.vstack([half, -half])
    from oracles import from_terms
    from polypart.solver import _imbalances

    odd = from_terms(2, {(1, 0): 1.0})
    from polypart.polyalg import eval_poly_many

    vals = eval_poly_many(odd, X)
    bucket = np.zeros(len(X), dtype=np.int64)  # every point alive, in part 0
    assert _imbalances(vals, bucket, 1)[0] == 0


def test_partition_points_report():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(300, 2))
    cfg = SolveConfig(s=4, n=2, restarts=2, iters=300, seed=6)
    rep = partition_points(X, 4, cfg)
    assert rep.max_count <= 4 * 300 / 2**4
    # imbalance trace covers every step and part
    steps = {r["step"] for r in rep.trace}
    assert steps == {1, 2, 3, 4}
    assert sum(1 for r in rep.trace if r["step"] == 4) == 8
    again = point_counts(X, rep.pvec)
    assert again == rep.counts
    assert rep.meta["k"] == 0


def test_partition_points_determinism():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(120, 2))
    cfg = SolveConfig(s=3, n=2, restarts=2, iters=200, seed=8)
    a = partition_points(X, 3, cfg)
    b = partition_points(X, 3, cfg)
    assert a.counts == b.counts and a.trace == b.trace
