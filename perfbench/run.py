"""Benchmark of polypart: one seeded workload per invocation.

    python3 perfbench/run.py --workload lines --seed 0 --seconds 30 --trace 0

Run from the repository root. The package is imported from `src/` of the
same checkout. The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics:

- `--trace 0` solves in a closed loop for `--seconds` seconds and reports
  every end-to-end metric of BENCHMARK.json.
- `--trace 1` runs the workload's fixed solve set twice, untraced and then
  traced (every layer function wrapped, see tracer.py). It reports every
  per-layer metric of BENCHMARK.json, including the tracing overhead. The
  counts repeat exactly for a given seed.

Every solve's output is gated (workloads.py); a mismatch makes the run exit
1 with "correct": false. Detail (environment, percentiles, digest, quality,
top self times) is printed above the last line and written with the spans
to `.perfbench_out/`.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy loads; children inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "results" / "baseline.json"
SETUP_REPEATS = 5
CAL_REF_S = 1e-3  # reported times are seconds on a machine where calibrate() takes this long
CAL_REPEATS = 3
CAL_EVERY_S = 0.2  # at most one calibration per this much solving
_CAL_X = np.linspace(0.1, 1.0, 64)
_CAL_P = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1024, 2))
_CAL_EXP = np.array([(a, t - a) for t in range(5) for a in range(t, -1, -1)])
_CAL_COLS = np.broadcast_to(np.arange(2), _CAL_EXP.shape)
TAIL_BEYOND = 10  # the tail percentile keeps at least this many solves above it
MIN_SOLVES = TAIL_BEYOND + 1
SPAN_SOLVES = 2  # span rows are kept for the first solves; counts cover all


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_polypart():
    if not (SRC / "polypart" / "__init__.py").is_file():
        fail(f"no polypart package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"polypart.{name}") for name in LAYERS}
    pkg = sys.modules["polypart"]
    if Path(pkg.__file__).resolve().parent != (SRC / "polypart").resolve():
        fail(f"imported polypart from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**mods), mods


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for row in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if row.endswith(" " + name):
                return row.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polypart").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "bench_seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def _kernel():
    # the loop is about a quarter of the kernel's time, the cloud evaluation
    # the rest: that weighting tracked the slowdowns of all four workloads
    # best when the host changed speed under fixed work
    acc = 0.0
    for i in range(80):
        y = _CAL_X * 1.0001 + i
        acc += float(y[i % 64]) + float(y[:8] @ y[8:16])
    powers = _CAL_P[:, :, None] ** np.arange(5)[None, None, :]
    return acc + float(np.prod(powers[:, _CAL_COLS, _CAL_EXP], axis=2).sum())


def calibrate() -> float:
    """Speed of the machine right now: the best of CAL_REPEATS timings of a
    fixed kernel.

    The kernel mixes interpreted Python driving small numpy operations with
    a monomial evaluation on a point cloud: the two instruction mixes of
    polypart's inner loops. Nothing in polypart runs here, so a change to
    the package cannot move it; only the speed of the machine can.
    """
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def normalized(dt, cal_before, cal_after):
    """Seconds at reference speed: dt rescaled so calibrate() takes CAL_REF_S."""
    return dt * CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure_setup(spec, instance: Path):
    """Fresh-process import of polypart plus input loading, SETUP_REPEATS times.

    Returns the raw child-measured times and the same at reference speed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = wl.setup_code(spec)
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        cal_before = calibrate()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(instance)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"setup child failed:\n{proc.stderr}", 1)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        norm.append(normalized(raw[-1], cal_before, calibrate()))
    return raw, norm


class CallCounter:
    """Counts the calls of one solver function (a workload's Spec.counted).

    `_step_block` is called once per annealer proposal, `_bisect_score` once
    per `_polish` proposal plus once per start it scores. One integer
    increment per call, against tens of microseconds of work or more per
    call, so it leaves the timings as they are. With name None it counts
    nothing.
    """

    def __init__(self, solver, name):
        self.solver = solver
        self.name = name
        self.count = 0

    def __enter__(self):
        if self.name is None:
            return self
        orig = self.orig = getattr(self.solver, self.name)

        def counted(*args, **kwargs):
            self.count += 1
            return orig(*args, **kwargs)

        setattr(self.solver, self.name, counted)
        return self

    def __exit__(self, *exc):
        if self.name is not None:
            setattr(self.solver, self.name, self.orig)


def timed_solve(spec, data, seed, k, pp, map_hook=None):
    """Solve k of the run: (wall time, result or counted error, gate)."""
    counted = (pp.cells.RootIsolationError, pp.equivariant.ContinuationError)
    run, gate = wl.prepare(spec, data, wl.solver_seed(seed, k), pp, map_hook)
    t0 = time.perf_counter()
    try:
        res = run()
    except counted as err:
        res = err
    return time.perf_counter() - t0, res, gate


def outcome_of(spec, res, gate, proposals=None):
    """Gate a solve's result; `proposals` is its count of Spec.counted calls."""
    if isinstance(res, Exception):
        return wl.failure_outcome(spec, res)
    out = gate(res)
    if out.proposals is None:
        out.proposals = proposals
    return out


def tail(times):
    """Highest percentile with at least TAIL_BEYOND solves above it."""
    ordered = sorted(times)
    n = len(ordered)
    value = ordered[n - TAIL_BEYOND - 1]
    return value, 100.0 * (n - TAIL_BEYOND) / n, n


def run_untraced(spec, seed, pp, seconds, instance):
    """Closed loop until the window closes, with at least MIN_SOLVES solves.

    Calibrations bracket every stretch of at least CAL_EVERY_S of solving,
    and each solve time is rescaled by the machine speed measured around it
    (see normalized).
    """
    wl.write_instance(spec, seed, 0, instance)
    setup_raw, setup_s = measure_setup(spec, instance)
    raw, times, cals, outcomes = [], [], [], []
    failed = 0
    pending = []  # raw times of solves waiting for the next calibration
    start = time.perf_counter()
    cal_before = calibrate()
    with CallCounter(pp.solver, spec.counted) as proposals:
        while len(raw) < MIN_SOLVES or time.perf_counter() < start + seconds:
            k = len(raw)
            data = wl.inputs(spec, seed, k, instance, pp)
            before = proposals.count
            dt, res, gate = timed_solve(spec, data, seed, k, pp)
            raw.append(dt)
            pending.append(dt)
            if sum(pending) >= CAL_EVERY_S:
                cal_after = calibrate()
                times += [normalized(t, cal_before, cal_after) for t in pending]
                cals.append(cal_after)
                cal_before, pending = cal_after, []
            failed += isinstance(res, Exception)
            outcomes.append(outcome_of(spec, res, gate, proposals.count - before))
        if pending:
            times += [normalized(t, cal_before, calibrate()) for t in pending]
    window = time.perf_counter() - start
    tail_s, pct, n = tail(times)
    rates = [o.proposals / t for o, t in zip(outcomes, times)]
    rates_raw = [o.proposals / t for o, t in zip(outcomes, raw)]
    k = spec.traced_solves
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_p50_s": (statistics.median(times), "s"),
        "solve_tail_s": (tail_s, "s"),
        "proposals_per_s": (statistics.median(rates), "1/s"),
        "success_rate": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "solves": n,
        "window_s": window,
        "solve_tail_percentile": pct,
        "error_rate": failed / n,
        "wall_clock": {
            "setup_s": statistics.median(setup_raw),
            "solve_p50_s": statistics.median(raw),
            "solve_tail_s": tail(raw)[0],
            "proposals_per_s": statistics.median(rates_raw),
            "calibration_p50_s": statistics.median(cals or [cal_before]),
            "calibration_range_s": [min(cals or [cal_before]), max(cals or [cal_before])],
        },
        "digest": wl.digest(outcomes[:k]),
        "digest_solves": k,
        "quality_all_solves": wl.quality(outcomes),
        "quality_digest_solves": wl.quality(outcomes[:k]),
    }
    return metrics, detail, n, failed


def _calls(tr, name):
    return tr.calls.get(name, 0)


def _self(tr, *names):
    return sum(tr.self_s.get(n, 0.0) for n in names)


def per_layer_metrics(tr, outcomes, map_evals, polish_scores, overhead, root_errors):
    """Every per-layer metric, named as in BENCHMARK.json, with its unit."""
    C, S, W = "count", "s", tr.work
    proposals = _calls(tr, "solver._step_block")
    accepted = sum(o.accepted for o in outcomes)
    q = wl.quality(outcomes)
    m = {}
    for fn, works in (
        ("polyalg.eval_poly_many", ("rows",)),
        ("polyalg.restrict_to_line_batch", ("lines",)),
        ("cells.isolate_real_roots_many", ("rows", "roots")),
        ("cells.cell_table_from_roots", ()),
        ("cells.counts", ()),
        ("cells.sign_vector_many", ("rows",)),
        ("spectrum.wht_table", ("entries",)),
        ("sphereprod.to_polys", ()),
        ("varieties.tube_sample", ("points",)),
        ("varieties.sample_in_ball", ("points",)),
        ("mollifier.eta", ()),
        ("equivariant.model_g", ()),
    ):
        m[f"{fn}.calls"] = (_calls(tr, fn), C)
        for key in works:
            m[f"{fn}.{key}"] = (W.get(f"{fn}.{key}", 0), C)
        m[f"{fn}.self_s"] = (_self(tr, fn), S)
    m.update(
        {
            "polyalg.MonomialBasis.builds": (_calls(tr, "polyalg.MonomialBasis"), C),
            "polyalg.MonomialBasis.self_s": (_self(tr, "polyalg.MonomialBasis"), S),
            "cells.line_restriction_roots.self_s": (_self(tr, "cells.line_restriction_roots"), S),
            "cells.root_isolation_errors": (root_errors, C),
            "spectrum.spectral_power.calls": (_calls(tr, "spectrum.spectral_power"), C),
            "sphereprod.XsPoint.inits": (_calls(tr, "sphereprod.XsPoint"), C),
            "sphereprod.XsPoint.self_s": (_self(tr, "sphereprod.XsPoint"), S),
            "mollifier.schedule.calls": (_calls(tr, "mollifier.schedule"), C),
            "solver.proposals": (proposals, C),
            "solver.accepted": (accepted, C),
            "solver.accept_ratio": (accepted / proposals if proposals else 0.0, "ratio"),
            "solver.partition.self_s": (
                _self(tr, "solver.partition_varieties", "solver.partition_points"),
                S,
            ),
            "solver.monomial_matrix.self_s": (_self(tr, "solver._monomial_matrix"), S),
            "solver.smooth_descent.self_s": (_self(tr, "solver._smooth_descent"), S),
            "solver.polish.calls": (_calls(tr, "solver._polish"), C),
            "solver.polish.proposals": (polish_scores, C),
            "solver.polish.self_s": (_self(tr, "solver._polish"), S),
            "equivariant.map_evals": (map_evals, C),
            "equivariant.starts_tried": (sum(o.starts_tried for o in outcomes), C),
            "equivariant.continuation_zero.self_s": (
                _self(tr, "equivariant.continuation_zero"),
                S,
            ),
            "cli.load_instance.self_s": (_self(tr, "cli.load_instance"), S),
            "trace.overhead_ratio": (overhead, "ratio"),
            "trace.spans": (sum(tr.calls.values()), C),
            "solve.max_count": (q["max_count"], C),
            "solve.spectral_power": (q["spectral_power"], "count2"),
            "solve.within_bound_frac": (q["within_bound_frac"], "ratio"),
            "solve.error_rate": (q["error_rate"], "ratio"),
        }
    )
    for layer, t in tr.layer_self_s().items():
        m[f"layer.{layer}.self_s"] = (t, S)
    return m


def layer_checks(workload, tr):
    """Does the trace show the layer this workload was chosen to stress?"""
    top = max(tr.self_s, key=tr.self_s.get, default=None)
    layers = tr.layer_self_s()
    top_layer = max(layers, key=layers.get)
    if workload == "lines":
        return {"isolate_real_roots_many leads self time": top == "cells.isolate_real_roots_many"}
    if workload == "circles":
        return {
            "eval_poly_many leads self time": top == "polyalg.eval_poly_many",
            "no root isolation": _calls(tr, "cells.isolate_real_roots_many") == 0,
        }
    if workload == "points":
        return {"solver layer leads self time": top_layer == "solver"}
    return {"equivariant layer leads self time": top_layer == "equivariant"}


def run_traced(spec, seed, pp, mods, instance, stem):
    """The fixed solve set, each solve run untraced and then traced.

    Pairing the two, and alternating which goes first, keeps drift in
    machine speed and warm-up order out of the overhead ratio. The traced
    side also loads its instance under the tracer, for the cli layer. Gates
    run with the tracer removed.
    """
    tr = Tracer()
    map_evals = [0]
    polish_scores = 0  # solver._bisect_score calls in the traced solves

    def count_map(fn):
        def counted(x):
            map_evals[0] += tr.installed
            return fn(x)

        return counted

    def traced(k):
        nonlocal polish_scores
        tr.install(mods)
        try:
            data = wl.inputs(spec, seed, k, instance, pp)
            with CallCounter(pp.solver, "_bisect_score") as scores:
                out = timed_solve(spec, data, seed, k, pp, count_map)
            polish_scores += scores.count
            return out
        finally:
            tr.uninstall()

    times_u, times_t, outcomes_u, outcomes_t, done_t = [], [], [], [], []
    for k in range(spec.traced_solves):
        tr.request = k
        tr.keep_spans = k < SPAN_SOLVES
        for untraced in (k % 2 == 0, k % 2 == 1):
            if untraced:
                data = wl.inputs(spec, seed, k, instance, pp)
                dt, res, gate = timed_solve(spec, data, seed, k, pp)
                times_u.append(dt)
                outcomes_u.append(outcome_of(spec, res, gate))
            else:
                dt, res, gate = traced(k)
                times_t.append(dt)
                done_t.append(res)
                outcomes_t.append(outcome_of(spec, res, gate))
    leftover = Tracer.leftover_wrappers(mods)
    if leftover:
        fail(f"tracer left wrappers behind: {leftover}", 1)
    k = spec.traced_solves
    root_errors = sum(isinstance(res, pp.cells.RootIsolationError) for res in done_t)
    overhead = sum(times_t) / sum(times_u)
    metrics = per_layer_metrics(
        tr, outcomes_t, map_evals[0], polish_scores, overhead, root_errors
    )
    digest_u, digest_t = wl.digest(outcomes_u), wl.digest(outcomes_t)
    tr.write_spans(OUT / f"{stem}-spans.json.gz")
    summary = tr.summary()
    top = list(summary["functions"].items())[:8]
    detail = {
        "solves": k,
        "untraced_s": sum(times_u),
        "traced_s": sum(times_t),
        "digest": digest_u,
        "digest_traced": digest_t,
        "layer_checks": layer_checks(spec.name, tr),
        "top_self_s": {n: v["self_s"] for n, v in top},
        "accept_ratio_base": "solver._step_block calls (all restarts)",
        "trace": summary,
    }
    failed = sum(isinstance(res, Exception) for res in done_t)
    if digest_u != digest_t:
        detail["gate_error"] = "traced solves produced different outputs than untraced ones"
    return metrics, detail, k, failed


def baseline_note(workload, seed, digest):
    try:
        runs = json.loads(BASELINE.read_text())["runs"]
    except (OSError, KeyError, ValueError):
        return "no recorded baseline"
    for r in runs:
        if r["workload"] == workload and r["seed"] == seed:
            if r["detail"]["digest"] == digest:
                return "digest matches the recorded baseline"
            return "DIGEST DIFFERS from the recorded baseline: outputs changed (a behaviour change)"
    return "no recorded baseline digest for this seed"


def check_names(bench, metrics, trace):
    """The printed metric set must be exactly BENCHMARK.json's list."""
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(want) ^ set(got))}", 1)


def main(argv=None) -> int:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json at the repository root: {err}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    pp, mods = import_polypart()
    spec = wl.SPECS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    instance = OUT / f"{stem}-instance.json"
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            metrics, detail, attempted, failed = run_traced(
                spec, args.seed, pp, mods, instance, stem
            )
        else:
            metrics, detail, attempted, failed = run_untraced(
                spec, args.seed, pp, args.seconds, instance
            )
        correct = "gate_error" not in detail
    except wl.GateError as err:
        metrics, detail, attempted, failed = {}, {"gate_error": str(err)}, 1, 1
        correct = False
    if correct:
        check_names(bench, metrics, args.trace)
        detail["baseline"] = baseline_note(args.workload, args.seed, detail["digest"])

    for key in ("solves", "solve_tail_percentile", "digest", "baseline", "layer_checks",
                "top_self_s", "gate_error"):
        if key in detail:
            print(f"{key}: {json.dumps(detail[key])}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    (OUT / f"{stem}-result.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "detail": detail}, indent=1) + "\n"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
