"""The names the benchmark reaches in polypart must exist.

perfbench/tracer.py wraps a function under every module-level name that
binds it, and its REQUIRED_BINDINGS lists bindings whose absence would hide a
module's calls; a traced run stops when one is missing. perfbench/workloads.py
and run.py call polypart as `pp.<module>.<name>(...)`, which must bind to the
callable's signature, and count the calls of solver functions they name as
strings. All three files are read with `ast`, without importing the benchmark.
A polypart module imports no name it does not use, unless REQUIRED_BINDINGS
lists that name for it, and defines no top-level function or class that
nothing in src/ or perfbench/ names, unless UNREFERENCED lists it.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "polypart"
TRACER = PERFBENCH / "tracer.py"
CALLERS = (PERFBENCH / "workloads.py", PERFBENCH / "run.py")


def required_bindings() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REQUIRED_BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no REQUIRED_BINDINGS in {TRACER}")


def test_every_required_binding_is_bound():
    required = required_bindings()
    assert required
    missing = [
        f"{layer}.{name}"
        for name, layers in required.items()
        for layer in layers
        if not callable(getattr(importlib.import_module(f"polypart.{layer}"), name, None))
    ]
    assert missing == []


def unused_imports(path: Path) -> set:
    """The names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used_or_required():
    required = {(layer, name) for name, layers in required_bindings().items() for layer in layers}
    unused = {(path.stem, name) for path in SRC.glob("*.py") for name in unused_imports(path)}
    assert unused - required == set()


# top-level definitions in src/polypart that no code in src/ or perfbench/ names yet
UNREFERENCED = {
    ("cli", "load_pvec"): "the README documents it; ROADMAP item 16 gives it a caller",
    ("cells", "isolate_real_roots_flat"): "ROADMAP item 13 gives it a caller",
}


def test_every_definition_is_referenced():
    names = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unreferenced = {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names
    }
    assert unreferenced == set(UNREFERENCED)


def _string_arg(call: ast.Call, index: int, keyword: str):
    args = call.args[index : index + 1] + [k.value for k in call.keywords if k.arg == keyword]
    return [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]


def perfbench_uses() -> tuple[set, set]:
    """({(module, name) of every pp.<module>.<name>}, {counted solver names}):
    the counted names are Spec's `counted` and CallCounter's function name."""
    used, counted = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "pp"
            ):
                used.add((node.value.attr, node.attr))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "Spec":
                    counted.update(_string_arg(node, 3, "counted"))
                elif node.func.id == "CallCounter":
                    counted.update(_string_arg(node, 1, "name"))
    return used, counted


def test_perfbench_calls_resolve():
    used, counted = perfbench_uses()
    assert ("equivariant", "continuation_zero") in used
    assert {"_step_block", "_bisect_score"} <= counted
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"polypart.{module}"), name)
    ]
    solver = importlib.import_module("polypart.solver")
    missing += [f"solver.{name}" for name in sorted(counted) if not callable(getattr(solver, name, None))]
    assert missing == []


def _dict_keys(node) -> list:
    """The string keys of every dict literal in node (both arms of an `a if
    c else b`, say); None if node holds no dict literal."""
    dicts = [d for d in ast.walk(node) if isinstance(d, ast.Dict)]
    if not dicts:
        return None
    return [k.value for d in dicts for k in d.keys if isinstance(k, ast.Constant)]


def perfbench_calls() -> list:
    """(where, module, name, positional count, keyword names) of every
    `pp.<module>.<name>(...)` call. A `**kw` argument contributes the string
    keys of the dict literals that its file assigns to kw."""
    out = []
    for path in CALLERS:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        assigned = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned.setdefault(t.id, []).append(node.value)
        for node in nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "pp"
            ):
                continue
            where = f"{path.name}:{node.lineno}"
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            names = []
            for k in node.keywords:
                if k.arg is not None:
                    names.append(k.arg)
                    continue
                keys = [_dict_keys(v) for v in assigned.get(getattr(k.value, "id", None), [])]
                assert keys and None not in keys, f"{where}: unresolved **{ast.unparse(k.value)}"
                names += sorted({key for ks in keys for key in ks})
            out.append((where, node.func.value.attr, node.func.attr, len(node.args), names))
    return out


def test_perfbench_calls_bind_to_signatures():
    calls = perfbench_calls()
    assert ("cells", "counts") in {(m, name) for _, m, name, _, _ in calls}
    assert any("objective" in names for *_, names in calls)  # read through **kw
    bad = []
    for where, module, name, npos, names in calls:
        target = getattr(importlib.import_module(f"polypart.{module}"), name)
        try:
            assert len(names) == len(set(names)), "a keyword is passed twice"
            inspect.signature(target).bind(*[None] * npos, **dict.fromkeys(names))
        except (TypeError, AssertionError) as err:
            bad.append(f"{where} {module}.{name}: {err}")
    assert bad == []
