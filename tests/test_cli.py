import json
import re
import subprocess
import sys

import numpy as np
import pytest

from polypart.cells import CellCounts, SamplingConfig, counts, point_counts
from polypart import cli, mollifier, polyalg
from polypart.cli import Instance, InstanceError, load_instance, load_pvec, main


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def lines_instance(tmp_path, num=6, seed=0):
    rng = np.random.default_rng(seed)
    varieties = []
    for _ in range(num):
        theta = rng.uniform(0, 2 * np.pi)
        u = [np.cos(theta), np.sin(theta)]
        nvec = [-u[1], u[0]]
        rho = rng.uniform(-1, 1)
        varieties.append(
            {"kind": "line", "point": [rho * nvec[0], rho * nvec[1]], "dir": u}
        )
    return write_instance(tmp_path, {"n": 2, "varieties": varieties})


def test_load_instance_happy_path(tmp_path):
    path = write_instance(
        tmp_path,
        {
            "n": 2,
            "varieties": [
                {"kind": "line", "point": [0.0, 1.0], "dir": [1.0, 0.0]},
                {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
            ],
            "points": [[0.1, 0.2], [0.3, 0.4]],
        },
    )
    inst = load_instance(path)
    assert isinstance(inst, Instance)
    assert inst.n == 2 and len(inst.varieties) == 2
    assert inst.points.shape == (2, 2)


def test_load_instance_diagnostics(tmp_path):
    bad = write_instance(
        tmp_path, {"n": 2, "varieties": [{"kind": "line", "point": [0, 0], "dir": [2, 0]}]}
    )
    with pytest.raises(InstanceError, match=r"varieties\[0\]"):
        load_instance(bad)
    missing = write_instance(tmp_path, {"n": 2, "varieties": [{"kind": "line"}]}, "m.json")
    with pytest.raises(InstanceError, match=r"varieties\[0\]\.point"):
        load_instance(missing)
    noise = tmp_path / "noise.json"
    noise.write_text("{not json")
    with pytest.raises(InstanceError, match="line 1"):
        load_instance(str(noise))
    with pytest.raises(InstanceError, match="'n'"):
        load_instance(write_instance(tmp_path, {"varieties": []}, "nn.json"))


def test_partition_command_end_to_end(tmp_path):
    inst = lines_instance(tmp_path)
    out = tmp_path / "out"
    rc = main(
        [
            "partition",
            "--input", inst,
            "--s", "2",
            "--seed", "3",
            "--iters", "60",
            "--restarts", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_count"] >= 1
    # the emitted report re-verifies: counts recomputed from the serialized
    # tuple match the report exactly
    pvec, payload = load_pvec(out / "report.json")
    meta = payload["meta"]
    sampling = SamplingConfig(
        R=meta["sampling"]["R"], count=meta["sampling"]["count"], seed=meta["seed"]
    )
    inst_obj = load_instance(inst)
    again = counts(inst_obj.varieties, pvec, sampling, exact_lines=meta["exact_lines"])
    bits = [cli._bits(i, again.s) for i in range(len(again.table))]
    assert dict(zip(bits, again.table.tolist())) == report["counts"]
    lines = (out / "counts.csv").read_text().strip().splitlines()
    assert lines[0] == "w_bits,count"
    assert len(lines) == 1 + 4
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,objective"


def test_partition_command_byte_identical(tmp_path):
    inst = lines_instance(tmp_path, seed=5)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    argv = ["partition", "--input", inst, "--s", "2", "--seed", "9",
            "--iters", "40", "--restarts", "1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in ("report.json", "counts.csv", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_partition_points_command(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(80, 2)).tolist()
    inst = write_instance(tmp_path, {"n": 2, "points": pts})
    out = tmp_path / "out"
    rc = main(
        ["partition-points", "--input", inst, "--s", "3", "--seed", "1",
         "--iters", "200", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["num_points"] == 80
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,part,size,imbalance"
    assert len(trace) == 1 + 1 + 2 + 4
    pvec, payload = load_pvec(out / "report.json")
    again = point_counts(np.array(pts), pvec)
    bits = [cli._bits(i, again.s) for i in range(len(again.table))]
    assert dict(zip(bits, again.table.tolist())) == report["counts"]


def test_empty_family_report(tmp_path):
    inst = write_instance(tmp_path, {"n": 2, "varieties": []})
    out = tmp_path / "out"
    assert main(["partition", "--input", inst, "--s", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_count"] == 0 and report["bound_ratio"] == 0.0
    assert all(v == 0 for v in report["counts"].values())


def test_malformed_instance_exit_code(tmp_path, capsys):
    inst = write_instance(
        tmp_path, {"n": 2, "varieties": [{"kind": "line", "point": [0, 0], "dir": [3, 0]}]}
    )
    rc = main(["partition", "--input", inst, "--s", "2", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "varieties[0]" in err
    rc = main(["partition", "--input", str(tmp_path / "missing.json"), "--s", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_verify_commands_pass(capsys):
    assert main(["verify-borsuk", "--s", "2"]) == 0
    assert main(["verify-spectrum", "--s", "6"]) == 0
    assert main(["bench-line-cells", "--D", "4", "--trials", "60"]) == 0
    assert main(["verify-mollifier", "--delta-grid", "0.25,0.125,0.0625"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polypart.cli", "verify-spectrum", "--s", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("command", ["partition", "partition-points"])
@pytest.mark.parametrize(
    "flag, value",
    [("--s", "0"), ("--s", "21"), ("--restarts", "0"), ("--iters", "-1"), ("--seed", "-1")],
)
def test_bad_solver_flags_exit_2(tmp_path, capsys, command, flag, value):
    # checked before the instance is read, so a large --s allocates nothing
    inst = write_instance(tmp_path, {"n": 2, "points": [[0.1, 0.2]]})
    argv = [command, "--input", inst, "--s", "2", "--out", str(tmp_path / "o")]
    rc = main(argv + [f"{flag}={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["partition", "partition-points"])
def test_basis_budget_exit_2(tmp_path, capsys, monkeypatch, command):
    # --s 20 in R^2 needs a degree-1023 block with 524,800 monomials; the guard
    # reads that from the degree schedule before any basis is enumerated
    inst = write_instance(
        tmp_path,
        {
            "n": 2,
            "varieties": [{"kind": "line", "point": [0.0, 0.1], "dir": [1.0, 0.0]}],
            "points": [[0.1, 0.2], [0.3, 0.4]],
        },
    )

    def enumerated(*args):
        raise AssertionError("a basis was enumerated past the budget guard")

    monkeypatch.setattr(polyalg, "_grlex_exponents", enumerated)
    rc = main([command, "--input", inst, "--s", "20", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--s 20" in err and str(polyalg.MAX_BASIS_DIM) in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValueError, match="524800 monomials"):
        polyalg.MonomialBasis(2, 1023)


@pytest.mark.parametrize(
    "varieties, why",
    [
        (
            [
                {"kind": "line", "point": [0.0, 0.0, 0.0], "dir": [1.0, 0.0, 0.0]},
                {"kind": "implicit", "polys": [{"exponents": [[1, 0, 0]], "coeffs": [1.0]}]},
            ],
            "implicit",
        ),
        (
            [
                {"kind": "line", "point": [0.0, 0.0, 0.0], "dir": [1.0, 0.0, 0.0]},
                {"kind": "kplane", "point": [0.0, 0.0, 1.0], "frame": [[1, 0, 0], [0, 1, 0]]},
            ],
            "dimension k",
        ),
    ],
)
def test_unsolvable_family_exit_2(tmp_path, capsys, varieties, why):
    inst = write_instance(tmp_path, {"n": 3, "varieties": varieties})
    rc = main(["partition", "--input", inst, "--s", "2", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "varieties[1]" in err and why in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_radius_exit_2(tmp_path, capsys, value):
    inst = lines_instance(tmp_path)
    rc = main(["partition", "--input", inst, "--s", "2", f"--radius={value}",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--radius" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_verify_borsuk_s6_passes_every_row():
    # 64 zeros with 63 finite-difference columns each, so every entry of the
    # model map's s = 6 product table is checked, in about a second
    rows = cli.verify_borsuk(6)
    assert [name for name, _, _ in rows] == [
        "zero-count", "zero-residual", "jacobian-diagonal", "jacobian-fd",
        "jacobian-analytic", "equivariance",
    ]
    assert all(passed for _, passed, _ in rows), rows


_jacobian_g, _model_jac, _wht_table = cli.eq.jacobian_g, cli.eq.model_jac, cli.wht_table


def _one_sign_flipped(z):
    J = _jacobian_g(z)
    J[0, 0] = -J[0, 0]
    return J


def _model_jac_one_sign_flipped(x):
    J = _model_jac(x)
    J[0, 1] = -J[0, 1]  # d g_1 / d x_1
    return J


def _cells_past_bound(lines, pvec):
    return [[None] * (sum(p.basis.D for p in pvec) + 2) for _ in lines]


# each suite with one property broken: (argv, owner, name, replacement, rows that must fail)
BROKEN_SUITES = {
    "borsuk": (["verify-borsuk", "--s", "2"], cli.eq, "jacobian_g", _one_sign_flipped,
               ["jacobian-fd"]),
    "borsuk-analytic": (["verify-borsuk", "--s", "2"], cli.eq, "model_jac",
                        _model_jac_one_sign_flipped, ["jacobian-analytic"]),
    "spectrum": (["verify-spectrum", "--s", "4"], cli, "wht_table",
                 lambda table: _wht_table(table) + 1, ["wht-involution"]),
    "line-cells-above": (["bench-line-cells", "--D", "4", "--trials", "10"], cli,
                         "line_cell_sets", _cells_past_bound, ["line-cell-bound"]),
    "line-cells-none": (["bench-line-cells", "--D", "4", "--trials", "10"], cli,
                        "line_cell_sets", lambda lines, pvec: [[] for _ in lines],
                        ["line-cell-bound"]),
    "mollifier": (["verify-mollifier", "--delta-grid", "0.25,0.125,0.0625"], cli, "i_delta",
                  lambda *args: 0.5, ["separated-cell-zero", "witness-one"]),
}


@pytest.mark.parametrize("suite", sorted(BROKEN_SUITES))
def test_verify_suite_fails_on_a_broken_property(monkeypatch, capsys, suite):
    # the acceptance criteria only read these rows, so a broken property
    # must turn its row to FAIL and the command's exit code to 1
    argv, owner, name, broken, rows = BROKEN_SUITES[suite]
    monkeypatch.setattr(owner, name, broken)
    assert main(argv) == 1
    out = capsys.readouterr().out
    for row in rows:
        assert f"FAIL {row}:" in out


@pytest.mark.parametrize("command", ["verify-borsuk", "verify-spectrum"])
@pytest.mark.parametrize("value", ["0", "21", "40"])
def test_verify_suite_bad_s_exit_2(monkeypatch, capsys, command, value):
    # the guard fires before either suite builds anything of size 2^s
    def reached(*args, **kwargs):
        raise AssertionError("suite ran past the --s guard")

    monkeypatch.setattr(cli.eq, "g_zeros", reached)
    monkeypatch.setattr(cli.np.random, "default_rng", reached)
    assert main([command, "--s", value]) == 2
    err = capsys.readouterr().err
    assert "--s" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["9", "10", "11", "20"])
def test_verify_borsuk_s_above_zero_limit_exit_2(monkeypatch, capsys, value):
    # within --s's general range but above the suite's practical limit (9, 10)
    # or what g_zeros enumerates (11, 20)
    def reached(*args, **kwargs):
        raise AssertionError("suite ran past the --s guard")

    monkeypatch.setattr(cli.eq, "g_zeros", reached)
    assert main(["verify-borsuk", "--s", value]) == 2
    err = capsys.readouterr().err
    assert f"--s must be in 1..{cli.MAX_BORSUK_S}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", ["--D", "--trials"])
def test_bench_line_cells_bad_flag_exit_2(capsys, flag):
    assert main(["bench-line-cells", f"{flag}=0"]) == 2
    err = capsys.readouterr().err
    assert flag in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_point_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "inst.json"
    path.write_text('{"n": 2, "points": [[0.1, 0.2], [%s, 0.3], [0.5, 0.6]]}' % bad)
    with pytest.raises(InstanceError, match=r"points\[1\].*finite"):
        load_instance(str(path))
    out = tmp_path / "o"
    rc = main(["partition-points", "--input", str(path), "--s", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "points[1]" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0.0625,0.125,0.0625", "0.25,0.25"])
def test_verify_mollifier_non_decreasing_grid_exit_2(monkeypatch, capsys, grid):
    # rejected before any check runs: a repeated or rising level is an input
    # error, not a failed schedule property
    def reached(*args, **kwargs):
        raise AssertionError("suite ran past the --delta-grid guard")

    monkeypatch.setattr(cli, "schedule", reached)
    assert main(["verify-mollifier", "--delta-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--delta-grid" in captured.err and "decreasing" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "grid, message",
    [("", "nonempty"), ("1.0,0.5", r"\(0, 1\)"), ("0.5,0.0", r"\(0, 1\)"), ("2.0", r"\(0, 1\)")],
)
def test_verify_mollifier_bad_grid_exit_2(capsys, grid, message):
    assert main(["verify-mollifier", f"--delta-grid={grid}"]) == 2
    err = capsys.readouterr().err
    assert "--delta-grid" in err and re.search(message, err)


def test_verify_mollifier_defaults_to_the_solver_grid(monkeypatch):
    grids = []
    monkeypatch.setattr(cli, "verify_mollifier", lambda grid: grids.append(grid) or [])
    assert main(["verify-mollifier"]) == 0
    assert grids == [mollifier.DELTA_GRID]


_LINE = '{"kind": "line", "point": [0, 0], "dir": [1, 0]}'

# (command, instance text or None for a missing file, what the error names)
BAD_INSTANCES = {
    "line-point-nan": (
        "partition", '{"n": 2, "varieties": [{"kind": "line", "point": [NaN, 0], "dir": [1, 0]}]}',
        "line point must be finite"),
    "radius-string": (
        "partition", '{"n": 2, "varieties": [{"kind": "circle", "center": [0, 0], "radius": "x"}]}',
        "circle radius must hold real numbers"),
    "radius-infinity": (
        "partition",
        '{"n": 2, "varieties": [{"kind": "circle", "center": [0, 0], "radius": Infinity}]}',
        "circle radius must be finite"),
    "radius-overflow": (
        "partition", '{"n": 2, "varieties": [{"kind": "circle", "center": [0, 0], "radius": 1e400}]}',
        "circle radius must be finite"),
    "radius-bool": (
        "partition", '{"n": 2, "varieties": [{"kind": "circle", "center": [0, 0], "radius": true}]}',
        "circle radius must hold real numbers"),
    "point-plane-infinity": (
        "partition", '{"n": 2, "varieties": [{"kind": "kplane", "point": [0, Infinity], "frame": []}]}',
        "k-plane point must be finite"),
    "direction-bool": (
        "partition", '{"n": 2, "varieties": [{"kind": "line", "point": [0, 0], "dir": [true, 0]}]}',
        "line direction must hold real numbers"),
    "point-scalar": (
        "partition", '{"n": 2, "varieties": [{"kind": "line", "point": 5, "dir": [1, 0]}]}',
        "line point must be a vector"),
    "center-null": (
        "partition", '{"n": 2, "varieties": [{"kind": "circle", "center": null, "radius": 1}]}',
        "circle center must hold real numbers"),
    "n-bool": ("partition", '{"n": true, "varieties": [%s]}' % _LINE, "field 'n'"),
    "n-missing": ("partition", '{"varieties": [%s]}' % _LINE, "field 'n'"),
    "varieties-not-array": ("partition", '{"n": 2, "varieties": 3}', "field 'varieties'"),
    "direction-not-unit": (
        "partition", '{"n": 2, "varieties": [{"kind": "line", "point": [0, 0], "dir": [3, 0]}]}',
        "unit vector"),
    "kind-implicit": ("partition", '{"n": 2, "varieties": [{"kind": "implicit"}]}', "implicit"),
    "family-mixed-k": (
        "partition",
        '{"n": 3, "varieties": [{"kind": "line", "point": [0, 0, 0], "dir": [1, 0, 0]}, '
        '{"kind": "kplane", "point": [0, 0, 1], "frame": [[1, 0, 0], [0, 1, 0]]}]}',
        "dimension k"),
    "json-invalid": ("partition", "{not json", "invalid JSON"),
    "file-missing": ("partition", None, "not found"),
    "points-nan": ("partition-points", '{"n": 2, "points": [[0.1, 0.2], [NaN, 0.3]]}', "points[1]"),
    "points-bool": (
        "partition-points", '{"n": 2, "points": [[true, 0.5], [0.2, false]]}',
        "points[0]: coordinates must be real numbers"),
    "points-string": (
        "partition-points", '{"n": 2, "points": [["0.2", 0.5]]}',
        "points[0]: coordinates must be real numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_bad_instance_exits_2_without_traceback(tmp_path, case):
    # a fresh process, as a user runs it: one error line, no traceback, no output
    command, text, names = BAD_INSTANCES[case]
    path, out = tmp_path / "inst.json", tmp_path / "o"
    if text is not None:
        path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "polypart.cli", command, "--input", str(path), "--s", "2",
         "--iters", "5", "--restarts", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and names in err[0], err
    assert not out.exists()
