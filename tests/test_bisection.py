"""The point solver's bisection kernels.

The pinned figures below were recorded from the solver before its kernels
were bucketed (dead points in their own bucket, one flat bincount per
Jacobian, the polish noise drawn at once); the rewrite had to reproduce every
decision and coefficient bit for bit. The coefficient digests were recorded
again when the monomial table came to build its powers by repeated
multiplication, and the N = 300 one again when the polish came to drop a
chunk's rows after the one it moves to; the tables and imbalances did not
move either time. The chunked polish is held to a plain reference of its
chunk rule that scores one proposal at a time.
"""

import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypart import solver
from polypart.cells import sign_vector_many
from polypart.polyalg import degree_schedule, monomial_basis, monomial_matrix
from polypart.solver import (
    TAU,
    SolveConfig,
    _imbalance_rows,
    _imbalances,
    _jacobian,
    _part_segments,
    _polish,
    _signs,
    partition_points,
)
from polypart.sphereprod import block_size

PINNED = [
    {
        "data_seed": (30, 0),
        "N": 1000,
        "s": 6,
        "cfg": {"restarts": 3, "iters": 600, "seed": 0},
        "table": [
            15, 15, 15, 11, 12, 18, 14, 15, 14, 16, 15, 16, 11, 8, 16, 18,
            17, 15, 12, 13, 16, 18, 18, 17, 14, 15, 17, 19, 13, 14, 14, 12,
            15, 14, 18, 19, 19, 12, 17, 16, 19, 15, 14, 11, 20, 23, 14, 14,
            15, 19, 17, 19, 16, 14, 14, 15, 16, 16, 17, 17, 18, 18, 18, 18,
        ],
        "imbalances": [
            0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 5, 4, 2, 1, 2,
            1, 1, 3, 0, 5, 9, 0, 1, 2, 2, 0, 1, 3, 8, 7, 6, 3, 1, 5, 1, 1,
            5, 9, 15, 2, 4, 2, 4, 5, 6, 0, 4, 4, 2, 2, 1, 0, 2, 5, 4, 4, 6,
        ],
        "pvec_sha256": "708ea3c42e55bca1db116f7b77b5bea8ff396771317e65cec0051e4900430208",
    },
    {
        "data_seed": 6,
        "N": 300,
        "s": 4,
        "cfg": {"restarts": 2, "iters": 300, "seed": 6},
        "table": [19, 19, 19, 19, 19, 18, 19, 18, 19, 19, 19, 19, 18, 18, 18, 19],
        "imbalances": [0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1],
        "pvec_sha256": "8b715446c2612bea3dd7fdfe025386451eb3439e842d4747bbc57e94775efd72",
    },
]


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"N{c['N']}_s{c['s']}")
def test_partition_points_pinned_bits(case):
    X = np.random.default_rng(case["data_seed"]).uniform(size=(case["N"], 2))
    s = case["s"]
    rep = partition_points(X, s, SolveConfig(s=s, n=2, **case["cfg"]))
    assert rep.counts.table.tolist() == case["table"]
    assert [r["imbalance"] for r in rep.trace] == case["imbalances"]
    digest = hashlib.sha256(b"".join(p.coeffs.tobytes() for p in rep.pvec)).hexdigest()
    assert digest == case["pvec_sha256"]


@pytest.mark.parametrize("seed", range(6))
def test_dropped_points_are_the_reported_boundary(seed):
    # a point bisection drops (|M c| <= TAU at some step) is exactly one the
    # reported table leaves out, since both read the same threshold; each
    # seed has a few such points, as the cuts pass through points to balance
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1000, 2))
    rep = partition_points(X, 6, SolveConfig(s=6, n=2, seed=seed))
    dropped = np.zeros(len(X), dtype=bool)
    for j, p in enumerate(rep.pvec, start=1):
        # the points alive at step j are those the trace's parts hold
        alive = sum(r["size"] for r in rep.trace if r["step"] == j)
        assert alive == len(X) - dropped.sum()
        M = monomial_matrix(X, p.basis)[:, : block_size(j)]
        dropped |= np.abs(M @ p.coeffs[: block_size(j)]) <= TAU
    _, boundary = sign_vector_many(rep.pvec, X)
    assert dropped.any()
    assert np.array_equal(dropped, boundary)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partition_points_rejects_non_finite(bad):
    X = np.random.default_rng(0).uniform(size=(3, 2))
    X[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        partition_points(X, 2, SolveConfig(s=2, n=2, restarts=1, iters=10))



@pytest.mark.parametrize(
    "s, cfg_s, cfg_n, match",
    [(3, 5, 2, r"s = 3 .* s = 5"), (3, 3, 3, r"n = 3 .* R\^2"), (3, 5, 3, r"s = 3 .* s = 5")],
)
def test_partition_points_rejects_config_mismatch(monkeypatch, s, cfg_s, cfg_n, match):
    # planar points: the call's s and the points' dimension must be the
    # config's, checked before any basis is built
    def reached(*args, **kwargs):
        raise AssertionError("solve ran past the s and n checks")

    monkeypatch.setattr(solver, "monomial_basis", reached)
    X = np.random.default_rng(0).uniform(size=(20, 2))
    with pytest.raises(ValueError, match=match):
        partition_points(X, s, SolveConfig(s=cfg_s, n=cfg_n, restarts=1, iters=10))


_value = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            TAU,
            -TAU,
            np.nextafter(TAU, 1.0),
            np.nextafter(-TAU, -1.0),
            np.nextafter(TAU, 0.0),
            np.nextafter(-TAU, 0.0),
            0.5 * TAU,
        ]
    ),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@settings(max_examples=200)
@given(
    st.integers(1, 8).flatmap(
        lambda n_parts: st.tuples(
            st.just(n_parts),
            st.lists(
                st.tuples(_value, st.integers(0, n_parts - 1), st.booleans()),
                min_size=1,
                max_size=40,
            ),
        )
    )
)
def test_bucketed_imbalances_match_brute_force(drawn):
    n_parts, points = drawn
    vals = np.array([v for v, _, _ in points])
    part = np.array([p for _, p, _ in points], dtype=np.int64)
    alive = np.array([a for _, _, a in points])
    assert np.array_equal(_signs(vals), np.copysign(np.abs(vals) > TAU, vals))

    def brute(sign):
        want = np.zeros(n_parts, dtype=np.int64)
        for p in range(n_parts):
            pos = sum(1 for (v, q, a) in points if a and q == p and sign * v > TAU)
            neg = sum(1 for (v, q, a) in points if a and q == p and sign * v < -TAU)
            want[p] = abs(pos - neg)
        return want

    bucket = np.where(alive, part, n_parts)
    got = _imbalances(vals, bucket, n_parts)
    assert got.dtype == np.int64
    assert np.array_equal(got, brute(1.0))
    # the polish's batched kernel, row by row: the live points sorted by part
    order, starts, filled = _part_segments(bucket, n_parts)
    rows = _imbalance_rows(np.stack([vals, -vals])[:, order], starts, filled, n_parts)
    assert rows.dtype == np.int64
    assert np.array_equal(rows[0], brute(1.0))
    assert np.array_equal(rows[1], brute(-1.0))


@settings(max_examples=200)
@given(
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
def test_flat_bincount_jacobian_equals_add_at(N, dim, n_parts, seed):
    rng = np.random.default_rng(seed)
    # wide magnitudes, so that a different summation order would show
    M = rng.normal(size=(N, dim)) * 10.0 ** rng.uniform(-8, 8, size=(N, dim))
    W = rng.normal(size=N) * 10.0 ** rng.uniform(-8, 8, size=N)
    W[rng.random(N) < 0.1] = 0.0
    part = rng.integers(0, n_parts, size=N)
    alive = rng.random(N) < 0.8
    bucket = np.where(alive, part, n_parts)
    # the unbucketed form: dead rows weighted 0 and added into their part
    want = np.zeros((n_parts, dim))
    np.add.at(want, part, M * np.where(alive, W, 0.0)[:, None])
    keys = (bucket[:, None] * dim + np.arange(dim)).ravel()
    got = _jacobian(M, W, keys, n_parts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _polish_reference(M, bucket, c, n_parts, rng, proposals):
    """The chunk rule one proposal at a time: every proposal of a chunk steps
    from the best point at the chunk's start, is normalized as the kernel
    normalizes its rows and is scored alone, by one matrix-vector product
    and one bincount; the walk moves to the chunk's first proposal that
    scores no worse."""

    def score(vals):
        weights = np.copysign(np.abs(vals) > 1e-9, vals)
        signed = np.bincount(bucket, weights=weights, minlength=n_parts + 1)[:n_parts]
        imb = np.abs(signed).astype(np.int64)
        return int(imb.max()), int(imb.dot(imb))

    best = c
    best_score = score(M @ c)
    noise = rng.normal(size=(proposals, len(best)))
    for k0 in range(0, proposals, solver._CHUNK):
        moved = None
        for k in range(k0, min(k0 + solver._CHUNK, proposals)):
            h = 0.3 * (0.03 / 0.3) ** (k / max(proposals - 1, 1))
            cand = best + h * noise[k]
            cand /= np.sqrt(np.einsum("ij,ij->i", cand[None], cand[None]))[0]
            s = score(M @ cand)
            if moved is None and s <= best_score:
                moved = cand, s
        if moved is not None:
            best, best_score = moved
    return best, best_score


@settings(max_examples=120)
@given(
    j=st.integers(1, 6),
    N=st.integers(1, 300),
    dead=st.sampled_from([0.0, 0.2, 1.0]),
    empty=st.sampled_from(["none", "middle", "last"]),
    proposals=st.sampled_from([0, 1, 15, 16, 17, 300]),
    descend=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_polish_follows_the_chunk_rule(j, N, dead, empty, proposals, descend, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(N, 2))
    M = monomial_matrix(X, monomial_basis(2, degree_schedule(2, 6)[j - 1]))[:, : block_size(j)]
    n_parts = 2 ** (j - 1)
    part = rng.integers(0, n_parts, size=N)
    if empty == "middle" and n_parts >= 3:
        part[part == n_parts // 2] = 0
    if empty == "last" and n_parts >= 2:
        part[part == n_parts - 1] = 0
    bucket = np.where(rng.random(N) < dead, n_parts, part)
    c = rng.normal(size=M.shape[1])
    c /= np.linalg.norm(c)
    if descend:  # the solver's starts: few proposals are accepted after descent
        c = solver._smooth_descent(M, bucket, c, n_parts)
    want = _polish_reference(M, bucket, c, n_parts, np.random.default_rng(seed), proposals)
    scored = []
    score = solver._bisect_score
    with patch.object(solver, "_bisect_score", lambda imb: scored.append(1) or score(imb)):
        got = _polish(M, bucket, c, n_parts, np.random.default_rng(seed), proposals)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert len(scored) == proposals + 1  # the start, then each proposal once
    assert got[1] <= score(_imbalances(M @ c, bucket, n_parts))


def test_bisect_score_once_per_proposal(monkeypatch):
    # the count the benchmark's proposals_per_s rests on: every polish
    # proposal and every start goes through _bisect_score, none past it
    calls = []
    score = solver._bisect_score

    def counted(imb):
        calls.append(1)
        return score(imb)

    monkeypatch.setattr(solver, "_bisect_score", counted)
    X = np.random.default_rng(6).uniform(size=(300, 2))
    s, restarts, iters = 4, 2, 300
    partition_points(X, s, SolveConfig(s=s, n=2, restarts=restarts, iters=iters, seed=6))
    assert len(calls) == s * restarts * (iters // 2 + 1)
