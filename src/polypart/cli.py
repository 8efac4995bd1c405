"""Batch front-end: instances in, reproducible reports and verify suites out.

Instance files are JSON with top-level n, varieties[] and points[]; other
keys are ignored. The smooth objective and verify-mollifier run on
mollifier.DELTA_GRID unless --delta-grid gives verify-mollifier other levels.
Partition commands write report.json, counts.csv, and trace.csv into --out;
verify commands print one PASS/FAIL line per property and exit nonzero on
any failure. All randomness flows from the single --seed through named
substreams, and outputs are byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import equivariant as eq
from .cells import (
    MAX_S, CellCounts, SamplingConfig, check_line_reach, check_line_tensors, index_w, line_cell_sets
)
from .mollifier import DELTA_GRID, check_delta_grid, i_delta, schedule
from .polyalg import MonomialBasis, Polynomial, check_reach, degree_schedule, grad_bound
from .solver import (
    PartitionReport, SolveConfig, family_dims, partition_points, partition_varieties
)
from .spectrum import is_equidistributed, lemma_identity_check, wht_table
from .sphereprod import retract
from .varieties import VarietySpec, build, line


class InstanceError(ValueError):
    """Instance file problem, carrying a field-level diagnostic."""


@dataclass
class Instance:
    n: int
    varieties: list[VarietySpec]
    points: np.ndarray | None


def load_instance(path: str) -> Instance:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InstanceError(f"instance file not found: {path}")
    except OSError as err:
        raise InstanceError(f"cannot read instance file {path}: {err.strerror}")
    except UnicodeDecodeError:
        raise InstanceError(f"instance file is not UTF-8 text: {path}")
    except json.JSONDecodeError as err:
        raise InstanceError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}")
    if not isinstance(raw, dict):
        raise InstanceError("top level must be a JSON object")
    if "n" not in raw:
        raise InstanceError("missing field 'n'")
    n = raw["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InstanceError(f"field 'n' must be a positive integer, got {n!r}")
    if not isinstance(raw.get("varieties", []), list):
        raise InstanceError("field 'varieties' must be an array")
    varieties = []
    for i, entry in enumerate(raw.get("varieties", [])):
        where = f"varieties[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise InstanceError(f"{where}: each variety needs a 'kind'")
        kind = entry["kind"]
        params = {k: v for k, v in entry.items() if k != "kind"}
        try:
            spec = build(kind, params)
        except KeyError as err:
            raise InstanceError(f"{where}.{err.args[0]}: required parameter missing")
        except (TypeError, ValueError) as err:
            raise InstanceError(f"{where}: {err}")
        if spec.n != n:
            raise InstanceError(f"{where}: ambient dimension {spec.n} does not match n = {n}")
        varieties.append(spec)
    points = None
    if raw.get("points"):
        try:
            points = np.asarray(raw["points"], dtype=np.float64)
        except (TypeError, ValueError):
            raise InstanceError("field 'points' must be an array of coordinate rows")
        if points.ndim != 2 or points.shape[1] != n:
            raise InstanceError(
                f"field 'points' must have shape (N, {n}), got {points.shape}"
            )
        # float64 conversion reads true as 1.0 and "0.5" as 0.5
        for i, row in enumerate(raw["points"]):
            for c in row:
                if isinstance(c, bool) or not isinstance(c, (int, float)):
                    raise InstanceError(f"points[{i}]: coordinates must be real numbers, got {c!r}")
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            raise InstanceError(f"points[{np.flatnonzero(bad)[0]}]: coordinates must be finite")
    return Instance(n=n, varieties=varieties, points=points)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _bits(idx: int, s: int) -> str:
    return "".join(str(b) for b in index_w(idx, s))


def write_report(out_dir: str, rep: PartitionReport, command: str, extra: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    s = rep.counts.s
    payload = {
        "command": command,
        "max_count": rep.max_count,
        "bound_ratio": rep.bound_ratio,
        "objective": rep.objective,
        "counts": {_bits(i, s): int(rep.counts.table[i]) for i in range(2**s)},
        "spectrum": {_bits(i, s): rep.spectrum.values[i].item() for i in range(2**s)},
        "pvec": [
            {"degree": p.basis.D, "coeffs": p.coeffs.tolist()} for p in rep.pvec
        ],
        "meta": _json_ready(rep.meta),
    }
    payload.update(_json_ready(extra))
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with (out / "counts.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["w_bits", "count"])
        for i in range(2**s):
            w.writerow([_bits(i, s), int(rep.counts.table[i])])
    with (out / "trace.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        if rep.trace and isinstance(rep.trace[0], dict):
            w.writerow(["step", "part", "size", "imbalance"])
            for row in rep.trace:
                w.writerow([row["step"], row["part"], row["size"], row["imbalance"]])
        else:
            w.writerow(["iteration", "objective"])
            for it, obj in rep.trace:
                w.writerow([it, obj])


def load_pvec(report_path: str) -> tuple[list[Polynomial], dict]:
    """Rebuild the polynomial tuple from a serialized report."""
    payload = json.loads(Path(report_path).read_text())
    n = payload["meta"]["n"]
    pvec = []
    for entry in payload["pvec"]:
        basis = MonomialBasis(n, entry["degree"])
        pvec.append(Polynomial(basis, np.array(entry["coeffs"])))
    return pvec, payload


# ---------------------------------------------------------------------------
# verify suites


def _check_s(s: int, limit: int = MAX_S) -> None:
    if not 1 <= s <= limit:
        raise InstanceError(f"--s must be in 1..{limit}, got {s}")


def _suite_result(checks) -> int:
    ok = True
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok &= passed
    return 0 if ok else 1


# verify_borsuk checks 2^s dense Jacobians of size 2^s - 1, each column by a
# central difference, about 3x the time per step of s; on a 2-core host
# s = 8 takes about 9 s and s = 9 about 26 s. g_zeros itself enumerates up
# to eq.MAX_ZERO_S, which continuation_zero also relies on; the cap stays
# below it until s = 10 has a time bound.
MAX_BORSUK_S = 8


def verify_borsuk(s: int):
    _check_s(s, MAX_BORSUK_S)
    checks = []
    zeros = eq.g_zeros(s)
    checks.append(
        ("zero-count", len(zeros) == 2**s, f"{len(zeros)} model zeros, expected {2**s}")
    )
    res = max(float(np.abs(eq.model_g(z)).max()) for z in zeros)
    checks.append(("zero-residual", res == 0.0, f"max residual {res}"))
    diag_ok, fd_ok, analytic_ok = True, True, True
    fd_worst = 0.0
    h = 1e-6
    model = eq.model_map(s)
    x_cols = [v + v.bit_length() - 1 for v in range(1, 2**s)]  # x_v's column
    for z in zeros:
        J = eq.jacobian_g(z)
        d = np.diag(J)
        diag_ok &= bool(np.all(np.isin(d, (-1.0, 1.0)))) and np.all(J == np.diag(d))
        # at a model zero the x_v columns span the tangent space that
        # continuation's Newton steps move in
        analytic_ok &= bool(np.array_equal(model.jac(z)[:, x_cols], J))
        for col, v in enumerate(range(1, 2**s)):
            j, slot = eq.slot_of_v(v)
            bp = [b.copy() for b in z.blocks]
            bm = [b.copy() for b in z.blocks]
            bp[j - 1][slot] += h
            bm[j - 1][slot] -= h
            # each slot direction is tangent at a model zero, so the difference
            # of the retracted points still reads column col of J
            fd = (eq.model_g(retract(bp)) - eq.model_g(retract(bm))) / (2 * h)
            fd_worst = max(fd_worst, float(np.abs(J[:, col] - fd).max()))
    fd_ok = fd_worst < 1e-6
    checks.append(("jacobian-diagonal", diag_ok, "entries in {-1, +1}"))
    checks.append(("jacobian-fd", fd_ok, f"max deviation {fd_worst:.3e}"))
    detail = "model_map jac on the x_v columns equals jacobian_g exactly"
    checks.append(("jacobian-analytic", analytic_ok, detail))
    viol = eq.check_equivariance(eq.model_map(s), trials=100, seed=0)
    checks.append(("equivariance", viol < 1e-14, f"max violation {viol:.3e}"))
    return checks


def verify_spectrum(s: int):
    _check_s(s)
    rng = np.random.default_rng(0)
    checks = []
    ok = True
    for _ in range(50):
        table = rng.integers(0, 1000, size=2**s).astype(np.int64)
        ok &= bool(np.array_equal(wht_table(wht_table(table)), (2**s) * table))
    checks.append(("wht-involution", ok, f"50 random tables at s = {s}"))
    ok = True
    for _ in range(300):
        table = rng.integers(0, 4, size=2**s)
        ok &= is_equidistributed(CellCounts(s, table)) == bool(np.all(table == table[0]))
    const = np.full(2**s, 7)
    ok &= is_equidistributed(CellCounts(s, const))
    checks.append(("equidistribution-iff-constant", ok, "300 random + constant tables"))
    ok = True
    for _ in range(100):
        table = rng.integers(0, 100, size=2**s)
        u = index_w(int(rng.integers(1, 2**s)), s)
        lhs, rhs = lemma_identity_check(CellCounts(s, table), u)
        ok &= lhs == rhs
    checks.append(("lemma-identity", ok, "lhs = rhs on 100 random tables"))
    return checks


def _random_line_poly_pair(rng, n, D):
    degs = []
    left = D
    while left > 0:
        d = int(rng.integers(1, min(3, left) + 1))
        degs.append(d)
        left -= d
    pvec = []
    for d in degs:
        basis = MonomialBasis(n, d)
        c = rng.normal(size=len(basis))
        pvec.append(Polynomial(basis, c / np.linalg.norm(c)))
    a = rng.normal(size=n)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    return line(a, u), pvec


def bench_line_cells(D: int, trials: int):
    if D < 1:
        raise InstanceError(f"--D must be >= 1, got {D}")
    if trials < 1:
        raise InstanceError(f"--trials must be >= 1, got {trials}")
    rng = np.random.default_rng(1)
    violations = 0
    fewest, most = math.inf, 0
    for t in range(trials):
        n = 2 if t % 2 == 0 else 3
        g, pvec = _random_line_poly_pair(rng, n, D)
        ws = line_cell_sets([g], pvec)[0]
        fewest, most = min(fewest, len(ws)), max(most, len(ws))
        if not 1 <= len(ws) <= D + 1:  # a line lies in at least one cell
            violations += 1
    return [
        (
            "line-cell-bound",
            violations == 0,
            f"{trials} trials at product degree {D}: cells per line {fewest}..{most} "
            f"within 1..{D + 1}, {violations} violations",
        )
    ]


def _unit_affine(normal, offset):
    """The affine P(x) = normal . x - offset on R^2, scaled to unit coefficients."""
    c = np.array([-offset, normal[0], normal[1]])
    return Polynomial(MonomialBasis(2, 1), c / np.linalg.norm(c))


def verify_mollifier(delta_grid):
    checks = []
    cert_ok, mono_ok = True, True
    for bases in ([MonomialBasis(2, 1)], [MonomialBasis(2, D) for D in degree_schedule(2, 4)]):
        prev_eps, prev_R = math.inf, 0.0
        for delta in delta_grid:
            cfg = schedule(delta, bases)
            B = max(grad_bound(b, cfg.radius + 1.0) for b in bases)
            cert_ok &= B * delta < cfg.eps
            mono_ok &= cfg.eps < prev_eps and cfg.radius > prev_R
            prev_eps, prev_R = cfg.eps, cfg.radius
    detail = f"B*delta < eps on {len(delta_grid)} levels, 2 basis sets"
    checks.append(("schedule-certificate", cert_ok, detail))
    checks.append(("schedule-monotone", mono_ok, "eps decreasing, R increasing"))

    rng = np.random.default_rng(2)
    values = []
    sep_ok = True
    for trial in range(50):
        # levels 2..9 of the default grid in turn; a shorter grid wraps around
        delta = delta_grid[(1 + trial % 8) % len(delta_grid)]
        theta = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(theta), np.sin(theta)])
        nv = np.array([-u[1], u[0]])
        offset = rng.uniform(-0.5, 0.5)
        P1 = _unit_affine(nv, offset)
        P2 = _unit_affine(rng.normal(size=2), rng.uniform(-0.5, 0.5))
        # the line runs 2.5 delta from P1's zero set, so its tube keeps 1.5 delta off it
        g = line((offset - 2.5 * delta) * nv, u)
        w = (0, int(rng.integers(0, 2)))
        cfg = schedule(delta, [P1.basis], mc_count=2048, seed=(20, trial))
        values.append(i_delta(g, [P1, P2], w, cfg))
        sep_ok &= values[-1] == 0.0
    checks.append(("separated-cell-zero", sep_ok, "50 tubes 2.5 delta from a zero set stay at 0"))

    wit_ok, tested = True, 0
    for trial in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(theta), np.sin(theta)])
        q = rng.uniform(-1.0, 1.0, size=2)
        g = line(q, u)
        pvec = []
        for _ in range(1 + trial % 2):
            while True:  # redraw until |P(q)| >= 0.2: q lies well inside a cell
                c = rng.normal(size=3)
                c /= np.linalg.norm(c)
                if abs(c[0] + c[1] * q[0] + c[2] * q[1]) >= 0.2:
                    break
            pvec.append(Polynomial(MonomialBasis(2, 1), c))
        at_q = [p.coeffs[0] + p.coeffs[1] * q[0] + p.coeffs[2] * q[1] for p in pvec]
        margin = min(abs(v) for v in at_q)
        w = tuple(int(v < 0) for v in at_q)
        for delta in delta_grid:
            cfg = schedule(delta, [p.basis for p in pvec], mc_count=32768, seed=(21, trial))
            B = max(grad_bound(p.basis, cfg.radius + 1.0) for p in pvec)
            if delta <= margin / (2.0 * B):
                tested += 1
                values.append(i_delta(g, pvec, w, cfg))
                wit_ok &= values[-1] == 1.0
    # at least one tested level per configuration on average, so that the
    # threshold is genuinely exercised; a grid of coarse levels alone fails
    detail = f"{tested} levels below the c/(2B) threshold, 50 needed"
    checks.append(("witness-one", wit_ok and tested >= 50, detail))
    in_range = all(0.0 <= v <= 1.0 for v in values)
    checks.append(("unit-range", in_range, f"{len(values)} values in [0, 1]"))
    return checks


# ---------------------------------------------------------------------------
# commands


def _translated(call, *args, prefix="--", **kwargs):
    """call(*args, **kwargs), a ValueError re-raised as an InstanceError of
    prefix + its message: a SolveConfig message starts with the field it
    rejects, which is the flag's name without its dashes."""
    try:
        return call(*args, **kwargs)
    except ValueError as err:
        raise InstanceError(f"{prefix}{err}")


def _solve_config(args, n: int, **extra) -> SolveConfig:
    return _translated(
        SolveConfig,
        s=args.s, n=n, restarts=args.restarts, iters=args.iters, seed=args.seed, **extra
    )


def _check_out(out: str) -> None:
    """InstanceError unless the nearest existing one of out and its parents is a directory."""
    path = next(p for p in (Path(out), *Path(out).absolute().parents) if p.exists())
    if not path.is_dir():
        raise InstanceError(f"--out: {path} exists and is not a directory")


def cmd_partition(args) -> int:
    _check_out(args.out)
    sampling = _translated(SamplingConfig, R=args.radius, seed=args.seed, prefix="--radius: ")
    inst = load_instance(args.input)
    cfg = _solve_config(args, inst.n, objective=args.objective, sampling=sampling)
    if not inst.varieties:
        # empty families still produce a valid all-zero report
        meta = {"s": args.s, "n": inst.n, "num_varieties": 0, "seed": args.seed}
        rep = PartitionReport.from_counts([], CellCounts.zeros(args.s), 0.0, [], meta)
        write_report(args.out, rep, "partition", {"input": args.input})
        return 0
    _translated(family_dims, inst.varieties, prefix="")
    sched = degree_schedule(inst.n, args.s)
    _translated(check_line_reach, inst.varieties, sched[-1], prefix="")
    _translated(check_line_tensors, inst.varieties, sched)
    rep = partition_varieties(inst.varieties, cfg)
    write_report(args.out, rep, "partition", {"input": args.input})
    return 0


def cmd_partition_points(args) -> int:
    _check_out(args.out)
    inst = load_instance(args.input)
    cfg = _solve_config(args, inst.n)
    if inst.points is None:
        raise InstanceError("field 'points': required for partition-points")
    _translated(check_reach, inst.points, degree_schedule(inst.n, args.s)[-1], "points", prefix="")
    rep = partition_points(inst.points, args.s, cfg)
    write_report(args.out, rep, "partition-points", {"input": args.input})
    return 0


def _parse_grid(text: str):
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InstanceError(f"--delta-grid must be comma-separated floats, got {text!r}")
    try:
        check_delta_grid(grid)
    except ValueError as err:
        raise InstanceError(f"--delta-grid: {err}, got {text!r}")
    return grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polypart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a variety family")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=SolveConfig.seed)
    p.add_argument("--objective", choices=("discrete", "smooth"), default="discrete")
    p.add_argument("--restarts", type=int, default=SolveConfig.restarts)
    p.add_argument("--iters", type=int, default=SolveConfig.iters)
    p.add_argument("--radius", type=float, default=SamplingConfig.R)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("partition-points", help="partition a point set by bisection")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=SolveConfig.seed)
    p.add_argument("--restarts", type=int, default=SolveConfig.restarts)
    p.add_argument("--iters", type=int, default=SolveConfig.iters)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition_points)

    p = sub.add_parser("verify-borsuk", help="model map zero and Jacobian checks")
    p.add_argument("--s", type=int, default=3)
    p.set_defaults(func=lambda a: _suite_result(verify_borsuk(a.s)))

    p = sub.add_parser("verify-spectrum", help="transform identity checks")
    p.add_argument("--s", type=int, default=8)
    p.set_defaults(func=lambda a: _suite_result(verify_spectrum(a.s)))

    p = sub.add_parser("bench-line-cells", help="line cell-entry bound check")
    p.add_argument("--D", type=int, default=6)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=lambda a: _suite_result(bench_line_cells(a.D, a.trials)))

    p = sub.add_parser("verify-mollifier", help="threshold schedule and tube checks")
    p.add_argument(
        "--delta-grid",
        default=",".join(map(str, DELTA_GRID)),
        help="comma-separated smoothing levels in (0, 1)",
    )
    p.set_defaults(func=lambda a: _suite_result(verify_mollifier(_parse_grid(a.delta_grid))))

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
