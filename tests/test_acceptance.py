"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 1, 2, 3 and 5 run the CLI verify suites and require every
row to pass, so their tolerances are pinned in `polypart.cli`; the others
pin theirs here. None is deferred to configuration.
"""

import time

import numpy as np
import pytest

from polypart import cli, equivariant as eq
from polypart.cells import SamplingConfig, counts
from polypart.solver import SolveConfig, partition_points, partition_varieties
from polypart.spectrum import wht_table
from polypart.sphereprod import flip, random_point, to_polys
from polypart.varieties import line


def report(num, detail):
    print(f"\nACCEPTANCE {num} PASS: {detail}")


def assert_rows_pass(rows):
    failed = [row for row in rows if not row[1]]
    assert not failed, failed


def test_criterion_1_model_map_facts():
    t0 = time.time()
    for s in (1, 2, 3):
        assert_rows_pass(cli.verify_borsuk(s))
    dt = time.time() - t0
    assert dt < 1.0
    report(1, f"model zeros, Jacobians, equivariance for s in 1..3 ({dt:.2f}s)")


def test_criterion_2_spectrum_identities():
    t0 = time.time()
    for s in range(1, 11):
        assert_rows_pass(cli.verify_spectrum(s))
    dt = time.time() - t0
    assert dt < 5.0
    report(2, f"involution, equidistribution, counting identity ({dt:.2f}s)")


def test_criterion_3_line_cell_bound():
    t0 = time.time()
    for D in range(2, 9):
        assert_rows_pass(cli.bench_line_cells(D, 143))
    dt = time.time() - t0
    assert dt < 30.0
    report(3, f"1001 random (line, tuple) pairs, zero bound violations ({dt:.2f}s)")


def test_criterion_4_flip_equivariance_chain():
    t0 = time.time()
    for seed in range(100):
        rng = np.random.default_rng((10, seed))
        s = 1 + seed % 4
        x = random_point(s, (11, seed))
        Gamma = []
        for _ in range(int(rng.integers(2, 5))):
            a = rng.normal(size=2)
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            Gamma.append(line(a, u))
        sampling = SamplingConfig(R=3.0, count=96, seed=seed)
        pvec = to_polys(x, 2)
        base = counts(Gamma, pvec, sampling, exact_lines=True)
        spec_base = wht_table(base.table)
        j = 1 + seed % s
        flipped = to_polys(flip(x, j), 2)
        # block flip negates exactly polynomial j
        for jj, (p, q) in enumerate(zip(pvec, flipped), start=1):
            if jj == j:
                assert np.array_equal(q.coeffs, -p.coeffs)
            else:
                assert np.array_equal(q.coeffs, p.coeffs)
        # counts permute by w -> w + e_j, exactly
        ctab = counts(Gamma, flipped, sampling, exact_lines=True).table
        perm = np.arange(2**s) ^ (1 << (j - 1))
        assert np.array_equal(ctab, base.table[perm])
        # balance values flip sign exactly on frequencies with bit j set
        spec_flip = wht_table(ctab)
        for v in range(2**s):
            sign = -1 if (v >> (j - 1)) & 1 else 1
            assert spec_flip[v] == sign * spec_base[v]
    dt = time.time() - t0
    assert dt < 10.0
    report(4, f"flip chain exact on 100 seeds, s <= 4 ({dt:.2f}s)")


def test_criterion_5_mollifier_suite():
    t0 = time.time()
    # range, vanishing and witness configurations, certificate down to 2^-12
    assert_rows_pass(cli.verify_mollifier([2.0**-e for e in range(1, 13)]))
    dt = time.time() - t0
    assert dt < 60.0
    report(5, f"range, vanishing, witness limit, certificate ({dt:.2f}s)")


def test_criterion_6_continuation():
    t0 = time.time()
    successes = 0
    for seed in range(50):
        f = eq.random_equivariant(2, 0.3, seed=seed)
        try:
            res = eq.continuation_zero(f, 2)
        except eq.ContinuationError:
            continue
        if res.residual < 1e-8:
            assert len(res.orbit) == 4
            assert max(res.orbit_residuals) < 1e-8
            successes += 1
    assert successes >= 45
    dt = time.time() - t0
    assert dt < 60.0
    report(6, f"continuation succeeded on {successes}/50 seeds ({dt:.2f}s)")


def test_criterion_7_point_partitioning():
    t0 = time.time()
    threshold = 4 * 1000 / 2**6
    good = 0
    worst = 0
    for seed in range(20):
        rng = np.random.default_rng((30, seed))
        X = rng.uniform(size=(1000, 2))
        cfg = SolveConfig(s=6, n=2, restarts=3, iters=600, seed=seed)
        rep = partition_points(X, 6, cfg)
        assert {r["step"] for r in rep.trace} == set(range(1, 7))
        worst = max(worst, rep.max_count)
        if rep.max_count <= threshold:
            good += 1
    assert good >= 18
    dt = time.time() - t0
    report(7, f"{good}/20 seeds with max cell <= {threshold} (worst {worst}, {dt:.1f}s)")


def unit_disk_lines(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        theta = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(theta), np.sin(theta)])
        nv = np.array([-u[1], u[0]])
        rho = rng.uniform(-1.0, 1.0)
        out.append(line(rho * nv, u))
    return out


def test_criterion_8_variety_partitioning():
    t0 = time.time()
    Gamma = unit_disk_lines(200, seed=40)
    sampling = SamplingConfig(R=4.0, seed=0)
    cfg = SolveConfig(s=4, n=2, restarts=2, iters=2000, seed=0, sampling=sampling)
    rep = partition_varieties(Gamma, cfg)
    D = rep.meta["D"]
    assert D == 7  # schedule for (n, s) = (2, 4)
    ratio = rep.max_count * D / len(Gamma)
    assert ratio == pytest.approx(rep.bound_ratio)
    assert ratio <= 8.0
    baselines = []
    for seed in range(20):
        x = random_point(4, seed=(41, seed))
        table = counts(Gamma, to_polys(x, 2), sampling, exact_lines=True)
        baselines.append(int(table.table.max()))
    median = float(np.median(baselines))
    assert rep.max_count <= 0.7 * median
    dt = time.time() - t0
    report(
        8,
        f"max {rep.max_count} vs baseline median {median} "
        f"(ratio {ratio:.2f} <= 8, {dt:.1f}s)",
    )
