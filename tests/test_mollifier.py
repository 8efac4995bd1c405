import math

import numpy as np
import pytest

from oracles import f_delta_v
from polypart.mollifier import (
    EPS_FACTOR,
    MollConfig,
    eta,
    family_clouds,
    i_delta,
    mollified_rows,
    mollified_table,
    schedule,
)
from polypart.polyalg import (
    MonomialBasis,
    Polynomial,
    degree_schedule,
    eval_poly_many,
    grad_bound,
)
from polypart.sphereprod import flip, random_point, to_polys
from polypart.varieties import circle, line


def unit_linear(cx, cy, c0):
    c = np.array([c0, cx, cy], dtype=float)
    return Polynomial(MonomialBasis(2, 1), c / np.linalg.norm(c))


def test_eta_examples():
    assert eta(0.1, 0.05) == 0.0
    assert eta(0.1, 0.30) == 1.0
    assert eta(0.1, 0.15) == pytest.approx(0.5)


def test_eta_monotone_continuous():
    ts = np.linspace(-1.0, 1.0, 2001)
    vals = eta(0.1, ts)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.max(np.abs(np.diff(vals))) < 0.02  # no jumps on a fine grid
    with pytest.raises(ValueError):
        eta(0.0, 1.0)


def test_schedule_certificate_degree1_at_half():
    bases = [MonomialBasis(2, 1)]
    cfg = schedule(0.5, bases)
    B = grad_bound(bases[0], cfg.radius + 1.0)
    assert B * cfg.delta < cfg.eps
    assert cfg.radius == pytest.approx(2.0)


def test_schedule_monotone_on_halving_grid():
    bases = [MonomialBasis(2, D) for D in degree_schedule(2, 4)]
    prev_eps, prev_R = math.inf, 0.0
    for e in range(1, 13):
        cfg = schedule(2.0**-e, bases)
        B = max(grad_bound(b, cfg.radius + 1.0) for b in bases)
        assert B * cfg.delta < cfg.eps  # certificate on the whole grid
        assert cfg.eps < prev_eps
        assert cfg.radius > prev_R
        prev_eps, prev_R = cfg.eps, cfg.radius
    assert prev_eps < 0.1 * schedule(0.5, bases).eps  # decays toward 0


def test_schedule_rejects_bad_delta():
    bases = [MonomialBasis(2, 1)]
    for bad in (0.0, 1.0, 2.0, -0.1):
        with pytest.raises(ValueError):
            schedule(bad, bases)


def test_i_delta_range_and_determinism():
    rng = np.random.default_rng(0)
    bases = [MonomialBasis(2, 1)]
    g = line((0.0, -0.3), (1.0, 0.0))
    for _ in range(10):
        pvec = [unit_linear(*rng.normal(size=3))]
        cfg = schedule(2.0**-6, bases, mc_count=512, seed=3)
        v = i_delta(g, pvec, (0,), cfg)
        assert 0.0 <= v <= 1.0
        assert i_delta(g, pvec, (0,), cfg) == v


def test_property3_separated_cell_exact_zero():
    # the variety sits below y = -h while the cell needs y > 0; with h > 2 delta
    # the tube cannot reach the cell and the indicator vanishes exactly
    bases = [MonomialBasis(2, 1)]
    P = unit_linear(0.0, 1.0, 0.0)  # y
    for e, h in ((3, 0.5), (5, 0.2), (8, 0.1)):
        delta = 2.0**-e
        assert h > 2 * delta
        g = line((0.0, -h), (1.0, 0.0))
        cfg = schedule(delta, bases, mc_count=2048, seed=4)
        assert i_delta(g, [P], (0,), cfg) == 0.0


def test_property4_witness_below_threshold():
    bases = [MonomialBasis(2, 1)]
    P = unit_linear(0.0, 1.0, 2.0)  # (y + 2)/sqrt(5): min 2/sqrt(5) on the x-axis
    g = line((0.0, 0.0), (1.0, 0.0))
    c = 2.0 / math.sqrt(5.0)
    for e in range(4, 13):
        delta = 2.0**-e
        cfg = schedule(delta, bases, mc_count=4096, seed=5)
        B = grad_bound(bases[0], cfg.radius + 1.0)
        if delta <= c / (2.0 * B):
            assert i_delta(g, [P], (0,), cfg) == 1.0


def test_i_delta_lipschitz_smoke():
    bases = [MonomialBasis(2, 1)]
    g = line((0.1, 0.2), (0.8, 0.6))
    cfg = schedule(2.0**-7, bases, mc_count=4096, seed=6)
    rng = np.random.default_rng(7)
    base = np.array([0.5, 0.3, 0.81])
    base /= np.linalg.norm(base)
    v0 = i_delta(g, [Polynomial(bases[0], base)], (0,), cfg)
    for h in (1e-3, 1e-5):
        pert = base + h * rng.normal(size=3)
        pert /= np.linalg.norm(pert)
        v1 = i_delta(g, [Polynomial(bases[0], pert)], (0,), cfg)
        assert abs(v1 - v0) <= 200.0 * h  # finite slope at shared samples


def test_f_delta_v_empty_family():
    bases = [MonomialBasis(2, 1)]
    cfg = schedule(2.0**-5, bases)
    x = random_point(2, seed=8)
    pvec = to_polys(x, 2)
    for v in [(1, 0), (0, 1), (1, 1)]:
        assert f_delta_v([], pvec, v, cfg) == 0.0
    with pytest.raises(ValueError):
        f_delta_v([], pvec, (0, 0), cfg)


def test_f_delta_v_flip_equivariance_shared_streams():
    Gamma = [line((0.0, 0.3), (1.0, 0.0)), line((0.5, 0.0), (0.0, 1.0))]
    x = random_point(2, seed=9)
    sched_bases = [MonomialBasis(2, D) for D in degree_schedule(2, 2)]
    cfg = schedule(2.0**-6, sched_bases, mc_count=2048, seed=10)
    pvec = to_polys(x, 2)
    for j in (1, 2):
        flipped = to_polys(flip(x, j), 2)
        for v in [(1, 0), (0, 1), (1, 1)]:
            sign = -1.0 if v[j - 1] else 1.0
            lhs = f_delta_v(Gamma, flipped, v, cfg)
            rhs = sign * f_delta_v(Gamma, pvec, v, cfg)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_single_variety_single_cell_transform():
    # gamma wholly inside cell (0, 0): both polynomials stay positive on it
    g = line((0.0, 0.0), (1.0, 0.0))
    pvec = [unit_linear(0.0, 1.0, 2.0), unit_linear(0.0, 1.0, 3.0)]
    bases = [p.basis for p in pvec]
    cfg = schedule(2.0**-8, bases, mc_count=4096, seed=11)
    row = mollified_table([g], pvec, cfg)
    assert row[0] == 1.0 and np.all(row[1:] == 0.0)
    for v in [(1, 0), (0, 1), (1, 1)]:
        assert f_delta_v([g], pvec, v, cfg) == pytest.approx(1.0)


def test_mollified_row_empty_tube():
    g = line((0.0, 50.0), (1.0, 0.0))  # far outside B_R
    pvec = [unit_linear(1.0, 0.0, 0.0)]
    cfg = schedule(2.0**-4, [pvec[0].basis], mc_count=256, seed=12)
    assert np.all(mollified_table([g], pvec, cfg) == 0.0)


def test_mollified_rows_match_per_point_oracle():
    rng = np.random.default_rng(6)
    sizes = [5, 0, 40, 17]
    weights = [0.01, 0.5, 0.002, 0.03]
    vals = rng.normal(size=(sum(sizes), 3))
    vals[[3, 20], [1, 0]] = 0.0  # boundary points count nowhere
    cfg = MollConfig(delta=0.25, eps=0.2, radius=3.0)
    rows = mollified_rows(list(vals.T), sizes, weights, cfg, n=2)
    want = np.zeros((len(sizes), 8))
    start = 0
    for c, (size, w) in enumerate(zip(sizes, weights)):
        for v in vals[start : start + size]:
            if np.all(v != 0.0):
                cell = sum(int(b) << j for j, b in enumerate(v < 0))
                want[c, cell] += float(eta(cfg.eps, np.abs(v).min())) * w
        start += size
    want = eta(cfg.eps, want * cfg.delta**-2)
    assert 0.0 < want.max() and np.any((want > 0.0) & (want < 1.0))
    assert np.allclose(rows, want, rtol=1e-12, atol=0.0)


def test_mollified_table_mixed_degrees():
    # degrees 2, 3, 1: every column is read off one monomial table on the
    # largest basis, wherever it sits in pvec, and agrees with values from
    # eval_poly_many up to rounding; coefficients of norm 100 keep the table
    # off zero at these levels
    rng = np.random.default_rng(4)
    Gamma = [circle((0.2, -0.1), 0.6), line((0.0, 0.3), (0.6, 0.8)), circle((-0.3, 0.4), 0.9)]
    pvec = []
    for D in (2, 3, 1):
        c = rng.normal(size=len(MonomialBasis(2, D)))
        pvec.append(Polynomial(MonomialBasis(2, D), 100.0 * c / np.linalg.norm(c)))
    nonzero = 0
    for delta in (2.0**-4, 2.0**-6):
        cfg = schedule(delta, [p.basis for p in pvec], mc_count=1024, seed=7)
        clouds = family_clouds(Gamma, cfg)
        got = mollified_table(Gamma, pvec, cfg, clouds)
        pts = np.concatenate([c.points for c in clouds])
        cols = [eval_poly_many(p, pts) for p in pvec]
        sizes = [len(c.points) for c in clouds]
        want = mollified_rows(cols, sizes, [c.weight for c in clouds], cfg, n=2).sum(axis=0)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        nonzero += np.count_nonzero(want)
    assert nonzero >= 4
