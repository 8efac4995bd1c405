"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred to configuration.
"""

import math
import time

import numpy as np
import pytest

from polypart import equivariant as eq
from polypart.cells import CellCounts, SamplingConfig, cells_entered_line, counts, index_w
from polypart.cli import _random_line_poly_pair
from polypart.mollifier import i_delta, schedule
from polypart.polyalg import MonomialBasis, Polynomial, degree_schedule, grad_bound
from polypart.solver import SolveConfig, partition_points, partition_varieties
from polypart.spectrum import is_equidistributed, lemma_identity_check, wht_table
from polypart.sphereprod import flip, random_point, retract, to_polys
from polypart.varieties import line


def report(num, detail):
    print(f"\nACCEPTANCE {num} PASS: {detail}")


def test_criterion_1_model_map_facts():
    t0 = time.time()
    h = 1e-6
    for s in (1, 2, 3):
        zeros = eq.g_zeros(s)
        assert len(zeros) == 2**s
        for z in zeros:
            assert np.max(np.abs(eq.model_g(z))) == 0.0
            J = eq.jacobian_g(z)
            d = np.diag(J)
            assert np.all(np.isin(d, (-1.0, 1.0)))
            assert np.array_equal(J, np.diag(d))
            for col, v in enumerate(range(1, 2**s)):
                j, slot = eq.slot_of_v(v)
                bp = [b.copy() for b in z.blocks]
                bm = [b.copy() for b in z.blocks]
                bp[j - 1][slot] += h
                bm[j - 1][slot] -= h
                fd = (eq.model_g(retract(bp)) - eq.model_g(retract(bm))) / (2 * h)
                assert np.abs(J[:, col] - fd).max() < 1e-6
        assert eq.check_equivariance(eq.model_map(s), trials=100, seed=s) < 1e-14
    dt = time.time() - t0
    assert dt < 1.0
    report(1, f"model zeros, Jacobians, equivariance for s in 1..3 ({dt:.2f}s)")


def test_criterion_2_spectrum_identities():
    t0 = time.time()
    rng = np.random.default_rng(0)
    for s in range(1, 11):
        for _ in range(20):
            table = rng.integers(0, 1000, size=2**s).astype(np.int64)
            assert np.array_equal(wht_table(wht_table(table)), (2**s) * table)
    for s in range(1, 5):
        for _ in range(300):
            table = rng.integers(0, 4, size=2**s)
            assert is_equidistributed(CellCounts(s, table)) == bool(
                np.all(table == table[0])
            )
        assert is_equidistributed(CellCounts(s, np.full(2**s, 9)))
    for s in range(1, 11):
        for _ in range(100):
            table = rng.integers(0, 100, size=2**s)
            u = index_w(int(rng.integers(1, 2**s)), s)
            lhs, rhs = lemma_identity_check(CellCounts(s, table), u)
            assert lhs == rhs
    dt = time.time() - t0
    assert dt < 5.0
    report(2, f"involution, equidistribution, counting identity ({dt:.2f}s)")


def test_criterion_3_line_cell_bound():
    t0 = time.time()
    rng = np.random.default_rng(1)
    violations = 0
    for trial in range(1000):
        n = 2 if trial % 2 == 0 else 3
        D = int(rng.integers(2, 9))
        g, pvec = _random_line_poly_pair(rng, n, D)
        ws = cells_entered_line(g, pvec)
        if not 1 <= len(ws) <= D + 1:
            violations += 1
    assert violations == 0
    dt = time.time() - t0
    assert dt < 30.0
    report(3, f"1000 random (line, tuple) pairs, zero bound violations ({dt:.2f}s)")


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


def _unit_affine(n_vec, offset):
    c = np.array([-offset, n_vec[0], n_vec[1]])
    return Polynomial(MonomialBasis(2, 1), c / np.linalg.norm(c))


def test_criterion_5_mollifier_suite():
    t0 = time.time()
    # schedule certificate over the full grid down to 2^-12
    grids = [2.0**-e for e in range(1, 13)]
    for bases in (
        [MonomialBasis(2, 1)],
        [MonomialBasis(2, D) for D in degree_schedule(2, 4)],
    ):
        for delta in grids:
            cfg = schedule(delta, bases)
            B = max(grad_bound(b, cfg.radius + 1.0) for b in bases)
            assert B * delta < cfg.eps

    rng = np.random.default_rng(2)
    # Property 3: 50 two-delta-separated configurations give exactly zero
    values = []
    for trial in range(50):
        delta = grids[1 + trial % 8]
        theta = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(theta), np.sin(theta)])
        nv = np.array([-u[1], u[0]])
        offset = rng.uniform(-0.5, 0.5)
        P1 = _unit_affine(nv, offset)
        P2 = _unit_affine(rng.normal(size=2), rng.uniform(-0.5, 0.5))
        gap = 2.5 * delta
        g = line((offset - gap) * nv, u)
        w = (0, int(rng.integers(0, 2)))
        cfg = schedule(delta, [P1.basis], mc_count=2048, seed=(20, trial))
        val = i_delta(g, [P1, P2], w, cfg)
        values.append(val)
        assert val == 0.0

    # Property 4: 50 witness configurations reach exactly one below c/(2B)
    tested_levels = 0
    for trial in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(theta), np.sin(theta)])
        q = rng.uniform(-1.0, 1.0, size=2)
        g = line(q, u)
        s = 1 + trial % 2
        pvec = []
        for _ in range(s):
            while True:
                c = rng.normal(size=3)
                c /= np.linalg.norm(c)
                p = Polynomial(MonomialBasis(2, 1), c)
                if abs(c[0] + c[1] * q[0] + c[2] * q[1]) >= 0.2:
                    break
            pvec.append(p)
        margin = min(abs(p.coeffs[0] + p.coeffs[1] * q[0] + p.coeffs[2] * q[1]) for p in pvec)
        w = tuple(
            int(p.coeffs[0] + p.coeffs[1] * q[0] + p.coeffs[2] * q[1] < 0) for p in pvec
        )
        for delta in grids:
            cfg = schedule(delta, [p.basis for p in pvec], mc_count=32768, seed=(21, trial))
            B = max(grad_bound(p.basis, cfg.radius + 1.0) for p in pvec)
            if delta <= margin / (2.0 * B):
                tested_levels += 1
                val = i_delta(g, pvec, w, cfg)
                values.append(val)
                assert val == 1.0
    assert tested_levels >= 50  # the threshold is genuinely exercised

    # Property 2: every evaluation observed above stays inside [0, 1]
    assert all(0.0 <= v <= 1.0 for v in values)
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
