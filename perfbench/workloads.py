"""The four benchmark workloads: seeded inputs, one solve, and its output gate.

Each workload is a closed loop with one client: the next solve starts only
after the previous one returned and passed its gate. Inputs are generated
from the bench seed alone and handed to polypart as instance files. Solve k
gets its own instance, drawn from (bench seed, workload, k), and the solver
seed `bench_seed * SEED_STRIDE + k`; a run's medians therefore average over
instances rather than depend on one draw.

Why each workload exists (the layer it stresses, as measured when the
benchmark was added):

- lines: criterion 8's family shape (200 unit-disk lines, s = 4, D = 7),
  discrete objective with exact line counting. Root isolation
  (cells.isolate_real_roots_many) dominates; no tube work.
- circles: smooth objective on plane circles over the default 12-level delta
  grid. Tube-cloud evaluation (polyalg.eval_poly_many) and the evaluator's
  sign packing dominate; no root isolation.
- points: criterion 7 (1000 uniform points, s = 6, 3 restarts, 600 iters).
  The solver's own bisection code (_polish, _smooth_descent) dominates and
  monomials go through solver._monomial_matrix.
- continuation: criterion 6 maps (s = 2, lambda = 0.3), one
  continuation_zero per map. The only workload that runs equivariant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 100_000
ROOT_TOL = 1e-8  # continuation residual gate, as in criterion 6


class GateError(AssertionError):
    """A solve's output disagrees with its re-derivation through public functions."""


@dataclass(frozen=True)
class Spec:
    name: str
    traced_solves: int  # fixed solve set for digests, traced runs and quality
    params: dict
    # solver function whose calls are this workload's search proposals;
    # None: the gate reports them (continuation starts tracked)
    counted: str | None


SPECS = {
    "lines": Spec("lines", 4, {"count": 200, "s": 4, "restarts": 1, "iters": 60}, "_step_block"),
    "circles": Spec(
        "circles",
        6,
        {"count": 16, "s": 3, "restarts": 1, "iters": 240, "mc_count": 512},
        "_step_block",
    ),
    "points": Spec(
        "points", 8, {"count": 1000, "s": 6, "restarts": 3, "iters": 600}, "_bisect_score"
    ),
    "continuation": Spec("continuation", 60, {"s": 2, "lam": 0.3, "maps_in_setup": 16}, None),
}


def solver_seed(bench_seed: int, k: int) -> int:
    return bench_seed * SEED_STRIDE + k


def write_instance(spec: Spec, bench_seed: int, k: int, path) -> None:
    """Generate the input of solve k from the bench seed and write it as JSON."""
    p = spec.params
    rng = np.random.default_rng([bench_seed, list(SPECS).index(spec.name), k])
    if spec.name == "lines":
        theta = rng.uniform(0, 2 * np.pi, size=p["count"])
        rho = rng.uniform(-1.0, 1.0, size=p["count"])
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nv = np.stack([-u[:, 1], u[:, 0]], axis=1)
        raw = {
            "n": 2,
            "varieties": [
                {"kind": "line", "point": (r * w).tolist(), "dir": d.tolist()}
                for r, w, d in zip(rho, nv, u)
            ],
        }
    elif spec.name == "circles":
        centers = rng.uniform(-1.0, 1.0, size=(p["count"], 2))
        radii = rng.uniform(0.2, 1.0, size=p["count"])
        raw = {
            "n": 2,
            "varieties": [
                {"kind": "circle", "center": c.tolist(), "radius": float(r)}
                for c, r in zip(centers, radii)
            ],
        }
    elif spec.name == "points":
        raw = {"n": 2, "points": rng.uniform(size=(p["count"], 2)).tolist()}
    else:
        raw = {"s": p["s"], "lam": p["lam"]}
    path.write_text(json.dumps(raw))


def load(spec: Spec, path, pp):
    """What the solves consume, read back from the instance file through polypart."""
    if spec.name == "continuation":
        return json.loads(path.read_text())
    return pp.cli.load_instance(str(path))


def inputs(spec: Spec, bench_seed: int, k: int, path, pp):
    """Write the instance of solve k and load it back."""
    write_instance(spec, bench_seed, k, path)
    return load(spec, path, pp)


def setup_code(spec: Spec) -> str:
    """Child-process program timing a fresh import plus input loading."""
    if spec.name == "continuation":
        load_stmt = (
            "import json\n"
            "raw = json.loads(open(path).read())\n"
            f"maps = [eq.random_equivariant(raw['s'], raw['lam'], k) for k in range({spec.params['maps_in_setup']})]\n"
        )
    else:
        load_stmt = "cli.load_instance(path)\n"
    return (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import polypart.cli as cli\n"
        "from polypart import equivariant as eq\n"
        "path = sys.argv[1]\n"
        + load_stmt
        + "print(repr(time.perf_counter() - t0))\n"
    )


@dataclass
class Outcome:
    """One solve: digest material, quality figures and search effort."""

    digest: bytes
    proposals: int | None  # None: the caller counts calls of Spec.counted
    max_count: int = 0
    spectral_power: float = 0.0
    accepted: int = 0
    starts_tried: int = 0
    within_bound: bool = False  # points only: max_count <= 4N / 2^s
    failed: bool = False  # the solve raised a counted domain error


def _partition_cfg(spec, pp, n, seed):
    p = spec.params
    sampling = pp.cells.SamplingConfig(R=4.0, seed=seed)
    kw = {"mc_count": p["mc_count"], "objective": "smooth"} if spec.name == "circles" else {}
    cfg = pp.solver.SolveConfig(
        s=p["s"], n=n, restarts=p["restarts"], iters=p["iters"], seed=seed, sampling=sampling, **kw
    )
    return cfg, sampling


def prepare(spec: Spec, data, seed: int, pp, map_hook=None):
    """Build solve k untimed. Returns (the timed call, the gate on its result).

    The gate re-derives the output through public functions, raises GateError
    on any mismatch and returns the solve's Outcome.
    """
    if spec.name == "continuation":
        f = pp.equivariant.random_equivariant(data["s"], data["lam"], seed)
        if map_hook is not None:
            f.fn = map_hook(f.fn)
        return lambda: pp.equivariant.continuation_zero(f, data["s"]), (
            lambda res: _gate_continuation(spec, f, res)
        )
    if spec.name == "points":
        cfg, _ = _partition_cfg(spec, pp, data.n, seed)
        X = data.points
        return lambda: pp.solver.partition_points(X, spec.params["s"], cfg), (
            lambda rep: _gate_points(spec, X, rep, pp)
        )
    cfg, sampling = _partition_cfg(spec, pp, data.n, seed)
    Gamma = data.varieties
    return lambda: pp.solver.partition_varieties(Gamma, cfg), (
        lambda rep: _gate_varieties(spec, Gamma, sampling, rep, pp)
    )


def _check(ok, what):
    if not ok:
        raise GateError(what)


def _table_digest(table) -> bytes:
    return np.asarray(table, dtype=np.int64).tobytes()


def _gate_varieties(spec, Gamma, sampling, rep, pp):
    table = pp.cells.counts(Gamma, rep.pvec, sampling, exact_lines=True).table
    _check(np.array_equal(table, rep.counts.table), "count table differs from cells.counts")
    _check(
        np.array_equal(pp.spectrum.wht_table(table), rep.spectrum.values),
        "spectrum differs from wht_table of the counts",
    )
    _check(int(table.max()) == rep.max_count, "max_count differs from the table")
    if spec.name == "lines":
        D = rep.meta["D"]
        worst = max(len(ws) for ws in pp.cells.line_cell_sets(Gamma, rep.pvec))
        _check(worst <= D + 1, f"a line enters {worst} cells, above D+1 = {D + 1}")
    return Outcome(
        digest=_table_digest(rep.counts.table),
        proposals=None,
        max_count=rep.max_count,
        spectral_power=rep.objective,
        accepted=sum(1 for it, _ in rep.trace if it >= 0),
    )


def _gate_points(spec, X, rep, pp):
    table = pp.cells.point_counts(X, rep.pvec).table
    _check(np.array_equal(table, rep.counts.table), "count table differs from point_counts")
    _check(
        np.array_equal(pp.spectrum.wht_table(table), rep.spectrum.values),
        "spectrum differs from wht_table of the counts",
    )
    _, boundary = pp.cells.sign_vector_many(rep.pvec, X)
    _check(
        int(table.sum()) + int(boundary.sum()) == len(X),
        "table sum plus boundary points differs from N",
    )
    threshold = 4 * len(X) / 2 ** spec.params["s"]
    return Outcome(
        digest=_table_digest(rep.counts.table),
        proposals=None,
        max_count=rep.max_count,
        spectral_power=rep.objective,
        within_bound=rep.max_count <= threshold,
    )


def _gate_continuation(spec, f, res):
    s = spec.params["s"]
    _check(res.residual < ROOT_TOL, f"residual {res.residual} not below {ROOT_TOL}")
    _check(len(res.orbit) == 2**s, "flip orbit has the wrong size")
    _check(max(res.orbit_residuals) < ROOT_TOL, "an orbit residual is not below 1e-8")
    _check(float(np.abs(f(res.point)).max()) < ROOT_TOL, "recomputed residual too large")
    rounded = np.round(np.concatenate(res.point.blocks) * 1e9).astype(np.int64)
    starts = res.start_index + 1
    return Outcome(digest=rounded.tobytes(), proposals=starts, starts_tried=starts)


def failure_outcome(spec, err) -> Outcome:
    """Outcome of a solve that raised one of the counted domain errors."""
    starts = 2 ** spec.params["s"] if spec.name == "continuation" else 0
    tag = f"failed:{type(err).__name__}".encode()
    return Outcome(digest=tag, proposals=starts, starts_tried=starts, failed=True)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(len(o.digest).to_bytes(8, "little"))
        h.update(o.digest)
    return h.hexdigest()


def quality(outcomes) -> dict:
    """Exact quality figures of a fixed solve set; repeat bit for bit per seed."""
    ok = [o for o in outcomes if not o.failed]
    n = len(outcomes)
    return {
        "max_count": float(np.mean([o.max_count for o in ok])) if ok else 0.0,
        "spectral_power": float(np.mean([o.spectral_power for o in ok])) if ok else 0.0,
        "within_bound_frac": sum(o.within_bound for o in ok) / n,
        "error_rate": (n - len(ok)) / n,
    }
