"""Run every workload, untraced and traced, and record the results.

    python3 perfbench/record.py --out perfbench/results/baseline.json

Run from the repository root. For each workload of BENCHMARK.json and each
of SEEDS (the default seed 0 and the held-out seed 1) this runs `run.py`
once untraced for BENCHMARK.json's `run_seconds` and once traced, and traces
the default seed a second time. It prints every
end-to-end metric with its unit and the tracing overhead, and writes all
metrics, digests and checks to `--out`. It exits 1 when a run fails its
gate, when digests of one seed differ between runs, or when the per-layer
counts of the two traced runs differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEEDS = (0, 1)  # the default seed, then the held-out one (never used for tuning)
DETAIL_KEYS = (
    "solves",
    "window_s",
    "wall_clock",
    "solve_tail_percentile",
    "error_rate",
    "digest",
    "quality_all_solves",
    "quality_digest_solves",
    "untraced_s",
    "traced_s",
    "layer_checks",
    "top_self_s",
    "accept_ratio_base",
)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)} failed")
    saved = json.loads((OUT / f"{workload}-seed{seed}-trace{int(trace)}-result.json").read_text())
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in saved["metrics"].items()},
        "detail": {k: saved["detail"][k] for k in DETAIL_KEYS if k in saved["detail"]},
        "env": saved["env"],
    }


def counts_of(r):
    return {n: m["value"] for n, m in r["metrics"].items() if m["unit"] != "s"
            and n != "trace.overhead_ratio"}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(OUT / "record.json"))
    args = parser.parse_args(argv)

    runs, problems = [], []
    seconds = bench["run_seconds"]
    for w in [entry["name"] for entry in bench["workloads"]]:
        for i, seed in enumerate(SEEDS):
            plain = run(w, seed, seconds, False)
            traced = [run(w, seed, seconds, True) for _ in range(2 if i == 0 else 1)]
            runs += [plain] + traced
            for r in [plain] + traced:
                if r["detail"]["digest"] != plain["detail"]["digest"]:
                    problems.append(f"{w} seed {seed}: digests differ between runs")
            if len(traced) == 2 and counts_of(traced[0]) != counts_of(traced[1]):
                problems.append(f"{w} seed {seed}: per-layer counts differ between traced runs")
            print(f"== {w} seed {seed}: {plain['detail']['solves']} solves, "
                  f"digest {plain['detail']['digest'][:16]}")
            for name, m in plain["metrics"].items():
                print(f"   {name} = {m['value']:.6g} {m['unit']}")
            t = traced[0]
            print(f"   tracing overhead = {t['metrics']['trace.overhead_ratio']['value']:.3f}x "
                  f"({t['detail']['traced_s']:.2f} s traced / {t['detail']['untraced_s']:.2f} s "
                  f"untraced over {t['detail']['solves']} solves)")
            print(f"   layer checks: {t['detail']['layer_checks']}")

    env = {k: v for k, v in runs[0]["env"].items() if k not in ("workload", "bench_seed")}
    for r in runs:
        del r["env"]
    record = {
        "env": env,
        "run_seconds": seconds,
        "seeds": {"default": SEEDS[0], "held_out": list(SEEDS[1:])},
        "dropped_workloads": [],
        "problems": problems,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
